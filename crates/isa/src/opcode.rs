//! Opcodes, instruction words, and their fixed-width encoding.

use std::fmt;

/// The 31 MiniRV opcodes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum Opcode {
    /// No operation.
    Nop = 0,
    /// `rd = rs1 + rs2`.
    Add = 1,
    /// `rd = rs1 - rs2`.
    Sub = 2,
    /// `rd = rs1 & rs2`.
    And = 3,
    /// `rd = rs1 | rs2`.
    Or = 4,
    /// `rd = rs1 ^ rs2`.
    Xor = 5,
    /// `rd = rs1 << rs2` (logical).
    Sll = 6,
    /// `rd = rs1 >> rs2` (logical).
    Srl = 7,
    /// `rd = (rs1 <s rs2)` (signed).
    Slt = 8,
    /// `rd = (rs1 <u rs2)` (unsigned).
    Sltu = 9,
    /// `rd = rs1 + sext(imm)`.
    Addi = 10,
    /// `rd = rs1 & sext(imm)`.
    Andi = 11,
    /// `rd = rs1 | sext(imm)`.
    Ori = 12,
    /// `rd = rs1 ^ sext(imm)`.
    Xori = 13,
    /// `rd = (rs1 <s sext(imm))`.
    Slti = 14,
    /// `rd = low(rs1 * rs2)`.
    Mul = 15,
    /// `rd = high(rs1 * rs2)` (unsigned product).
    Mulh = 16,
    /// Signed division (RISC-V semantics for /0 and overflow).
    Div = 17,
    /// Unsigned division.
    Divu = 18,
    /// Signed remainder.
    Rem = 19,
    /// Unsigned remainder.
    Remu = 20,
    /// `rd = mem[(rs1 + sext(imm)) mod MEM_WORDS]`.
    Lw = 21,
    /// `mem[(rs1 + sext(imm)) mod MEM_WORDS] = rs2`.
    Sw = 22,
    /// Branch if `rs1 == rs2` to `pc + sext(imm)`.
    Beq = 23,
    /// Branch if `rs1 != rs2`.
    Bne = 24,
    /// Branch if `rs1 <s rs2`.
    Blt = 25,
    /// Branch if `rs1 >=s rs2`.
    Bge = 26,
    /// Branch if `rs1 <u rs2`.
    Bltu = 27,
    /// Branch if `rs1 >=u rs2`.
    Bgeu = 28,
    /// `rd = pc + 1; pc = pc + sext(imm)`.
    Jal = 29,
    /// `rd = pc + 1; pc = rs1 + sext(imm)`.
    Jalr = 30,
}

impl Opcode {
    /// All opcodes, in encoding order.
    pub const ALL: [Opcode; 31] = [
        Opcode::Nop,
        Opcode::Add,
        Opcode::Sub,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Sll,
        Opcode::Srl,
        Opcode::Slt,
        Opcode::Sltu,
        Opcode::Addi,
        Opcode::Andi,
        Opcode::Ori,
        Opcode::Xori,
        Opcode::Slti,
        Opcode::Mul,
        Opcode::Mulh,
        Opcode::Div,
        Opcode::Divu,
        Opcode::Rem,
        Opcode::Remu,
        Opcode::Lw,
        Opcode::Sw,
        Opcode::Beq,
        Opcode::Bne,
        Opcode::Blt,
        Opcode::Bge,
        Opcode::Bltu,
        Opcode::Bgeu,
        Opcode::Jal,
        Opcode::Jalr,
    ];

    /// Decodes a 5-bit opcode field; unknown values decode to `Nop`.
    pub fn from_bits(bits: u8) -> Opcode {
        *Self::ALL.get(bits as usize).unwrap_or(&Opcode::Nop)
    }

    /// The 5-bit encoding.
    pub fn bits(self) -> u8 {
        self as u8
    }

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Nop => "nop",
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::And => "and",
            Opcode::Or => "or",
            Opcode::Xor => "xor",
            Opcode::Sll => "sll",
            Opcode::Srl => "srl",
            Opcode::Slt => "slt",
            Opcode::Sltu => "sltu",
            Opcode::Addi => "addi",
            Opcode::Andi => "andi",
            Opcode::Ori => "ori",
            Opcode::Xori => "xori",
            Opcode::Slti => "slti",
            Opcode::Mul => "mul",
            Opcode::Mulh => "mulh",
            Opcode::Div => "div",
            Opcode::Divu => "divu",
            Opcode::Rem => "rem",
            Opcode::Remu => "remu",
            Opcode::Lw => "lw",
            Opcode::Sw => "sw",
            Opcode::Beq => "beq",
            Opcode::Bne => "bne",
            Opcode::Blt => "blt",
            Opcode::Bge => "bge",
            Opcode::Bltu => "bltu",
            Opcode::Bgeu => "bgeu",
            Opcode::Jal => "jal",
            Opcode::Jalr => "jalr",
        }
    }

    /// Whether this is a conditional branch.
    pub fn is_branch(self) -> bool {
        matches!(
            self,
            Opcode::Beq | Opcode::Bne | Opcode::Blt | Opcode::Bge | Opcode::Bltu | Opcode::Bgeu
        )
    }

    /// Whether the instruction reads `rs2`.
    pub fn reads_rs2(self) -> bool {
        matches!(
            self,
            Opcode::Add
                | Opcode::Sub
                | Opcode::And
                | Opcode::Or
                | Opcode::Xor
                | Opcode::Sll
                | Opcode::Srl
                | Opcode::Slt
                | Opcode::Sltu
                | Opcode::Mul
                | Opcode::Mulh
                | Opcode::Div
                | Opcode::Divu
                | Opcode::Rem
                | Opcode::Remu
                | Opcode::Sw
        ) || self.is_branch()
    }

    /// Whether the instruction reads `rs1`.
    pub fn reads_rs1(self) -> bool {
        !matches!(self, Opcode::Nop | Opcode::Jal)
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A decoded instruction word.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Instr {
    /// Operation.
    pub op: Opcode,
    /// Destination register (2 bits).
    pub rd: u8,
    /// First source register (2 bits).
    pub rs1: u8,
    /// Second source register (2 bits).
    pub rs2: u8,
    /// 5-bit immediate (sign-extended by consumers).
    pub imm: u8,
}

impl Instr {
    /// A three-register instruction (`imm = 0`).
    pub fn rrr(op: Opcode, rd: u8, rs1: u8, rs2: u8) -> Instr {
        Instr {
            op,
            rd,
            rs1,
            rs2,
            imm: 0,
        }
    }

    /// A register-immediate instruction (`rs2 = 0`).
    pub fn rri(op: Opcode, rd: u8, rs1: u8, imm: u8) -> Instr {
        Instr {
            op,
            rd,
            rs1,
            rs2: 0,
            imm: imm & 0x1f,
        }
    }

    /// A branch (`rd = 0`).
    pub fn branch(op: Opcode, rs1: u8, rs2: u8, imm: u8) -> Instr {
        Instr {
            op,
            rd: 0,
            rs1,
            rs2,
            imm: imm & 0x1f,
        }
    }

    /// A NOP.
    pub fn nop() -> Instr {
        Instr::rrr(Opcode::Nop, 0, 0, 0)
    }

    /// Encodes to the 16-bit instruction word.
    pub fn encode(self) -> u16 {
        ((self.op.bits() as u16) << 11)
            | ((self.rd as u16 & 3) << 9)
            | ((self.rs1 as u16 & 3) << 7)
            | ((self.rs2 as u16 & 3) << 5)
            | (self.imm as u16 & 0x1f)
    }

    /// Decodes a 16-bit instruction word.
    pub fn decode(word: u16) -> Instr {
        Instr {
            op: Opcode::from_bits((word >> 11) as u8 & 0x1f),
            rd: (word >> 9) as u8 & 3,
            rs1: (word >> 7) as u8 & 3,
            rs2: (word >> 5) as u8 & 3,
            imm: word as u8 & 0x1f,
        }
    }

    /// The sign-extended immediate as an 8-bit two's-complement value.
    pub fn imm_sext(self) -> u8 {
        if self.imm & 0x10 != 0 {
            self.imm | 0xe0
        } else {
            self.imm
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} r{}, r{}, r{}, {}",
            self.op, self.rd, self.rs1, self.rs2, self.imm
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip_all_opcodes() {
        for op in Opcode::ALL {
            for rd in 0..4 {
                let i = Instr {
                    op,
                    rd,
                    rs1: 3 - rd,
                    rs2: rd ^ 1,
                    imm: (rd * 7 + 3) & 0x1f,
                };
                assert_eq!(Instr::decode(i.encode()), i);
            }
        }
    }

    #[test]
    fn unknown_opcode_bits_decode_to_nop() {
        let word = 31u16 << 11;
        assert_eq!(Instr::decode(word).op, Opcode::Nop);
    }

    #[test]
    fn imm_sign_extension() {
        assert_eq!(Instr::rri(Opcode::Addi, 1, 0, 0x1f).imm_sext(), 0xff);
        assert_eq!(Instr::rri(Opcode::Addi, 1, 0, 0x0f).imm_sext(), 0x0f);
    }

    #[test]
    fn classification_is_consistent() {
        assert!(!Opcode::Jal.is_branch());
        assert!(Opcode::Beq.is_branch() && Opcode::Beq.reads_rs2());
        assert!(Opcode::Sw.reads_rs2());
    }
}
