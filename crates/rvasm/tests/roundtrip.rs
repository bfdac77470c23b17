//! Property tests: every constructible instruction must survive
//! encode → decode unchanged, and the disassembler must never panic.
//! The strategy covers **all** instruction forms: RV32I, M, Zicsr,
//! system, the custom-1 LUT ops and the custom-2 Xkwtdot packed ops;
//! separate properties cover the compressed-parcel expander.

use kwt_rvasm::{CustomOp, Inst, PackedOp, Reg};
use proptest::prelude::*;

fn reg_strategy() -> impl Strategy<Value = Reg> {
    (0u32..32).prop_map(Reg::from_num)
}

fn imm12() -> impl Strategy<Value = i32> {
    -2048i32..=2047
}

/// Branch offsets: even, 13-bit signed.
fn boffset() -> impl Strategy<Value = i32> {
    (-2048i32..=2047).prop_map(|x| x * 2)
}

/// Jump offsets: even, 21-bit signed.
fn joffset() -> impl Strategy<Value = i32> {
    (-(1i32 << 19)..(1 << 19)).prop_map(|x| x * 2)
}

fn custom_op() -> impl Strategy<Value = CustomOp> {
    prop_oneof![
        Just(CustomOp::Exp),
        Just(CustomOp::Invert),
        Just(CustomOp::Gelu),
        Just(CustomOp::ToFixed),
        Just(CustomOp::ToFloat),
    ]
}

fn packed_op() -> impl Strategy<Value = PackedOp> {
    prop_oneof![
        Just(PackedOp::Kdot4I8),
        Just(PackedOp::KsatI16),
        Just(PackedOp::Kclip),
        Just(PackedOp::KcvtH2F),
        Just(PackedOp::KcvtF2H),
        Just(PackedOp::KfaddT),
        Just(PackedOp::KfsubT),
        Just(PackedOp::KfmulT),
    ]
}

/// U-type instructions.
fn u_type() -> impl Strategy<Value = Inst> {
    let r = reg_strategy;
    let uimm = -(1i32 << 19)..(1 << 19);
    prop_oneof![
        (r(), uimm.clone()).prop_map(|(rd, v)| Inst::Lui { rd, imm: v << 12 }),
        (r(), uimm).prop_map(|(rd, v)| Inst::Auipc { rd, imm: v << 12 }),
    ]
}

/// Jumps, loads, stores, branches.
fn control_and_memory() -> impl Strategy<Value = Inst> {
    let r = reg_strategy;
    prop_oneof![
        (r(), joffset()).prop_map(|(rd, offset)| Inst::Jal { rd, offset }),
        (r(), r(), imm12()).prop_map(|(rd, rs1, imm)| Inst::Jalr { rd, rs1, imm }),
        (r(), r(), imm12()).prop_map(|(rd, rs1, imm)| Inst::Lb { rd, rs1, imm }),
        (r(), r(), imm12()).prop_map(|(rd, rs1, imm)| Inst::Lh { rd, rs1, imm }),
        (r(), r(), imm12()).prop_map(|(rd, rs1, imm)| Inst::Lw { rd, rs1, imm }),
        (r(), r(), imm12()).prop_map(|(rd, rs1, imm)| Inst::Lbu { rd, rs1, imm }),
        (r(), r(), imm12()).prop_map(|(rd, rs1, imm)| Inst::Lhu { rd, rs1, imm }),
        (r(), r(), imm12()).prop_map(|(rs2, rs1, imm)| Inst::Sb { rs2, rs1, imm }),
        (r(), r(), imm12()).prop_map(|(rs2, rs1, imm)| Inst::Sh { rs2, rs1, imm }),
        (r(), r(), imm12()).prop_map(|(rs2, rs1, imm)| Inst::Sw { rs2, rs1, imm }),
        (r(), r(), boffset()).prop_map(|(rs1, rs2, offset)| Inst::Beq { rs1, rs2, offset }),
        (r(), r(), boffset()).prop_map(|(rs1, rs2, offset)| Inst::Bne { rs1, rs2, offset }),
        (r(), r(), boffset()).prop_map(|(rs1, rs2, offset)| Inst::Blt { rs1, rs2, offset }),
        (r(), r(), boffset()).prop_map(|(rs1, rs2, offset)| Inst::Bge { rs1, rs2, offset }),
        (r(), r(), boffset()).prop_map(|(rs1, rs2, offset)| Inst::Bltu { rs1, rs2, offset }),
        (r(), r(), boffset()).prop_map(|(rs1, rs2, offset)| Inst::Bgeu { rs1, rs2, offset }),
    ]
}

/// I-type and shift-immediate ALU instructions.
fn imm_alu() -> impl Strategy<Value = Inst> {
    let r = reg_strategy;
    prop_oneof![
        (r(), r(), imm12()).prop_map(|(rd, rs1, imm)| Inst::Addi { rd, rs1, imm }),
        (r(), r(), imm12()).prop_map(|(rd, rs1, imm)| Inst::Slti { rd, rs1, imm }),
        (r(), r(), imm12()).prop_map(|(rd, rs1, imm)| Inst::Sltiu { rd, rs1, imm }),
        (r(), r(), imm12()).prop_map(|(rd, rs1, imm)| Inst::Xori { rd, rs1, imm }),
        (r(), r(), imm12()).prop_map(|(rd, rs1, imm)| Inst::Ori { rd, rs1, imm }),
        (r(), r(), imm12()).prop_map(|(rd, rs1, imm)| Inst::Andi { rd, rs1, imm }),
        (r(), r(), 0u32..32).prop_map(|(rd, rs1, shamt)| Inst::Slli { rd, rs1, shamt }),
        (r(), r(), 0u32..32).prop_map(|(rd, rs1, shamt)| Inst::Srli { rd, rs1, shamt }),
        (r(), r(), 0u32..32).prop_map(|(rd, rs1, shamt)| Inst::Srai { rd, rs1, shamt }),
    ]
}

/// R-type ALU + full M extension.
fn reg_alu() -> impl Strategy<Value = Inst> {
    let r = reg_strategy;
    macro_rules! rrr {
        ($name:ident) => {
            (r(), r(), r()).prop_map(|(rd, rs1, rs2)| Inst::$name { rd, rs1, rs2 })
        };
    }
    prop_oneof![
        rrr!(Add),
        rrr!(Sub),
        rrr!(Sll),
        rrr!(Slt),
        rrr!(Sltu),
        rrr!(Xor),
        rrr!(Srl),
        rrr!(Sra),
        rrr!(Or),
        rrr!(And),
        rrr!(Mul),
        rrr!(Mulh),
        rrr!(Mulhsu),
        rrr!(Mulhu),
        rrr!(Div),
        rrr!(Divu),
        rrr!(Rem),
        rrr!(Remu),
    ]
}

/// System, CSR, and both custom extensions.
fn system_and_custom() -> impl Strategy<Value = Inst> {
    let r = reg_strategy;
    prop_oneof![
        Just(Inst::Ecall),
        Just(Inst::Ebreak),
        (r(), r(), 0u32..4096).prop_map(|(rd, rs1, csr)| Inst::Csrrw { rd, rs1, csr }),
        (r(), r(), 0u32..4096).prop_map(|(rd, rs1, csr)| Inst::Csrrs { rd, rs1, csr }),
        (r(), r(), 0u32..4096).prop_map(|(rd, rs1, csr)| Inst::Csrrc { rd, rs1, csr }),
        (custom_op(), r(), r(), r()).prop_map(|(op, rd, rs1, rs2)| Inst::Custom {
            op,
            rd,
            rs1,
            rs2
        }),
        (packed_op(), r(), r(), r()).prop_map(|(op, rd, rs1, rs2)| Inst::Packed {
            op,
            rd,
            rs1,
            rs2
        }),
    ]
}

fn inst_strategy() -> impl Strategy<Value = Inst> {
    prop_oneof![
        u_type(),
        control_and_memory(),
        imm_alu(),
        reg_alu(),
        system_and_custom(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn encode_decode_round_trip(inst in inst_strategy()) {
        let encoded = inst.encode();
        let decoded = Inst::decode(encoded);
        prop_assert_eq!(decoded, Some(inst));
    }

    #[test]
    fn disassembly_never_empty(inst in inst_strategy()) {
        prop_assert!(!inst.to_string().is_empty());
    }

    #[test]
    fn decode_never_panics(word in any::<u32>()) {
        let _ = Inst::decode(word);
    }

    #[test]
    fn compressed_expansion_never_panics(word in any::<u16>()) {
        let _ = kwt_rvasm::expand_compressed(word);
    }

    #[test]
    fn compressed_expansion_produces_valid_instructions(word in any::<u16>()) {
        if let Some(inst) = kwt_rvasm::expand_compressed(word) {
            // Whatever the expander produces must itself round-trip.
            prop_assert_eq!(Inst::decode(inst.encode()), Some(inst));
        }
    }

    #[test]
    fn decoded_words_reencode_to_themselves_or_canonical(word in any::<u32>()) {
        // decode → encode must be stable: the re-encoded word decodes to
        // the same instruction (encode may canonicalise don't-care bits).
        if let Some(inst) = Inst::decode(word) {
            prop_assert_eq!(Inst::decode(inst.encode()), Some(inst));
        }
    }
}
