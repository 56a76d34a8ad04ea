//! MiniRV: the compact instruction set implemented by the `uarch` processor
//! designs — the reproduction's stand-in for the paper's RV64IM (§VI).
//!
//! MiniRV is an 8-bit-datapath, 16-bit-fixed-width-encoding ISA with 31
//! instructions spanning the same behavioural classes the paper's
//! evaluation exercises: single-cycle ALU ops, immediates, a multiplier,
//! serial dividers/remainders (variable latency — intrinsic transmitters),
//! loads/stores (store-to-load interactions), branches and jumps
//! (speculation squash — dynamic transmitters).
//!
//! Encoding (16 bits): `[15:11] opcode | [10:9] rd | [8:7] rs1 | [6:5] rs2 |
//! [4:0] imm5`. Four architectural registers; `r0` is hardwired to zero.
//! Data memory has [`MEM_WORDS`] bytes, word-addressed; the *page offset* of
//! an address (for store-to-load matching, §IV-A) is its low
//! [`OFFSET_BITS`] bits.
//!
//! # Examples
//!
//! ```
//! use isa::{ArchState, Instr, Opcode};
//!
//! let mut st = ArchState::new();
//! st.regs[1] = 20;
//! st.regs[2] = 22;
//! st.step(Instr::rrr(Opcode::Add, 3, 1, 2));
//! assert_eq!(st.regs[3], 42);
//! ```

mod asm;
mod golden;
mod opcode;

pub use asm::{assemble, disassemble, AsmError};
pub use golden::ArchState;
pub use opcode::{Instr, Opcode};

/// Number of architectural registers (`r0` reads as zero).
pub const NUM_REGS: usize = 4;
/// Data-memory size in words.
pub const MEM_WORDS: usize = 8;
/// Bits of an address forming the "page offset" used for store-to-load
/// conflict detection.
pub const OFFSET_BITS: u8 = 2;
