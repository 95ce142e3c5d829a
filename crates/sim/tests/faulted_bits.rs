//! Faulted simulation pinned to the bit.
//!
//! The values below were recorded from the per-draw path walker that
//! priced every `(src, dst)` pair of every permute in every draw. The
//! route table that replaced it must reproduce them exactly: every
//! `tail` sample, the `run` makespan, the fault attribution, and — for
//! an unroutable permute — the same `LinkDown` at the same instruction.

use overlap_hlo::{Builder, DType, DotDims, InstrId, Module, Shape};
use overlap_mesh::{DeviceMesh, FaultSpec, LinkId, Machine};
use overlap_sim::{SimError, Simulation};

fn f32s(dims: &[usize]) -> Shape {
    Shape::new(DType::F32, dims.to_vec())
}

/// Pairs sending every device of the 4×4 torus to `to(row, col)`.
fn shift(to: impl Fn(u32, u32) -> (u32, u32)) -> Vec<(u32, u32)> {
    (0..16)
        .map(|d| {
            let (r, c) = to(d / 4, d % 4);
            (d, (r % 4) * 4 + c % 4)
        })
        .collect()
}

/// Permutes along each axis and across both, one list carried at two
/// payload sizes, around two einsums. Returns the module and the ids of
/// the row-shift and column-shift starts.
fn module() -> (Module, InstrId, InstrId) {
    let mut b = Builder::new("bits", 16);
    let x = b.parameter(f32s(&[65536]), "x");
    let a = b.parameter(f32s(&[256, 256]), "a");
    let w = b.parameter(f32s(&[256, 256]), "w");
    let small = b.parameter(f32s(&[512]), "small");
    let row = b.collective_permute_start(x, shift(|r, c| (r, c + 1)), "row");
    let y = b.einsum(a, w, DotDims::matmul(), "y");
    let col = b.collective_permute_start(x, shift(|r, c| (r + 3, c)), "col");
    let row_d = b.collective_permute_done(row, "row_d");
    let diag = b.collective_permute_start(row_d, shift(|r, c| (r + 1, c + 1)), "diag");
    let col_d = b.collective_permute_done(col, "col_d");
    let row2 = b.collective_permute_start(small, shift(|r, c| (r, c + 1)), "row2");
    let z = b.einsum(y, w, DotDims::matmul(), "z");
    let diag_d = b.collective_permute_done(diag, "diag_d");
    let row2_d = b.collective_permute_done(row2, "row2_d");
    (b.build(vec![z, col_d, diag_d, row2_d]), row, col)
}

fn machine() -> Machine {
    Machine::with_mesh(DeviceMesh::new(vec![4, 4]))
}

fn link(device: u32, axis: usize, forward: bool) -> LinkId {
    LinkId { device, axis, forward }
}

fn derates(seed: u64) -> FaultSpec {
    FaultSpec::seeded(seed)
        .with_link_derate(link(5, 1, true), 0.5)
        .with_link_derate(link(10, 0, false), 0.25)
        .with_link_derate(link(3, 1, true), 0.8)
}

/// The four specs: derates only; derates + jitter; a down link forcing
/// a detour + jitter + stalls (+ a straggler); a blocked detour.
fn specs() -> [FaultSpec; 4] {
    [
        derates(3),
        derates(11).with_jitter(2e-6),
        FaultSpec::seeded(5)
            .with_down_link(link(5, 1, true))
            .with_link_derate(link(9, 0, false), 0.5)
            .with_jitter(1e-6)
            .with_dma_stalls(0.3, 1e-6, 6)
            .with_straggler(2, 1.25),
        FaultSpec::seeded(7)
            .with_down_link(link(5, 1, true))
            .with_down_link(link(4, 1, false))
            .with_down_link(link(9, 0, false))
            .with_down_link(link(13, 0, true))
            .with_jitter(1e-6),
    ]
}

/// `(tail(8) bits, run() makespan bits, attribution bits)` of a spec;
/// the attribution is `[straggler, link, stall, retries]`.
type Bits = ([u64; 8], u64, [u64; 4]);

fn observe(spec: &FaultSpec) -> Result<Bits, SimError> {
    let (m, _, _) = module();
    let machine = machine();
    let sim = Simulation::new(&m, &machine).faults(Some(spec));
    let mut tail = [0; 8];
    for (bits, sample) in tail.iter_mut().zip(sim.tail(8)?) {
        *bits = sample.to_bits();
    }
    let report = sim.run()?;
    let a = report.fault_attribution();
    let attribution = [
        a.straggler_seconds.to_bits(),
        a.link_seconds.to_bits(),
        a.stall_seconds.to_bits(),
        a.stall_retries,
    ];
    Ok((tail, report.makespan().to_bits(), attribution))
}

/// Arena order with the column shift issued before the row shift.
fn col_first(m: &Module, row: InstrId, col: InstrId) -> Vec<InstrId> {
    let mut order: Vec<InstrId> = m.arena_order().into_iter().filter(|&id| id != col).collect();
    let at = order.iter().position(|&id| id == row).unwrap();
    order.insert(at, col);
    order
}

/// Derates only: nothing is drawn, so every sample is the makespan.
const DERATES: Bits = (
    [0x3ef0_7575_5727_1327; 8],
    0x3ef0_7575_5727_1327,
    [0, 0x3eee_96f7_5589_6b95, 0, 0],
);

const DERATES_JITTER: Bits = (
    [
        0x3ef5_564b_9542_d32b,
        0x3ef7_11c1_dcab_bd68,
        0x3ef4_137d_6e4f_89ea,
        0x3ef4_d03e_c66c_d57c,
        0x3ef5_2600_9714_b2b7,
        0x3ef5_7383_e376_64d0,
        0x3ef4_c058_a451_a445,
        0x3ef6_176b_551f_8b62,
    ],
    0x3ef5_564b_9542_d32b,
    [0, 0x3ef4_d41d_2b35_059a, 0, 0],
);

const DETOUR_JITTER_STALLS: Bits = (
    [
        0x3ef6_1426_3d67_f9b8,
        0x3ef9_927e_0e44_2322,
        0x3ef5_d3e0_79fe_829a,
        0x3ef8_da74_1b7d_2c10,
        0x3ef8_7e50_7648_d157,
        0x3ef5_5097_84dd_6a29,
        0x3ef4_3839_9f36_61e9,
        0x3ef7_0dd6_fc26_f55f,
    ],
    0x3ef6_1426_3d67_f9b8,
    [0x3ea3_0d40_39f2_2ad8, 0x3eeb_9aff_3ff0_2361, 0x3ec0_c6f7_a0b5_ed8d, 2],
);

#[test]
fn samples_makespans_and_attribution_are_unchanged() {
    let (m, _, _) = module();
    let pristine = Simulation::new(&m, &machine()).run().unwrap();
    assert_eq!(pristine.makespan().to_bits(), 0x3ee4_a733_3f54_8e8b);
    assert_eq!(pristine.timeline().spans.len(), 10);
    assert!(pristine.fault_attribution().is_zero());
    let [derates, jitter, detour, _] = specs();
    assert_eq!(observe(&derates), Ok(DERATES));
    assert_eq!(observe(&jitter), Ok(DERATES_JITTER));
    assert_eq!(observe(&detour), Ok(DETOUR_JITTER_STALLS));
}

#[test]
fn a_blocked_detour_fails_at_the_permute_that_reaches_it() {
    let [.., blocked] = specs();
    let (m, row, col) = module();
    let machine = machine();
    // In arena order the row shift issues first: its 5 -> 6 pair detours
    // backward and dies on 4's backward link. Issued first, the column
    // shift's 9 -> 5 pair dies on 13's forward link instead.
    let col_first = col_first(&m, row, col);
    for (order, down) in [
        (m.arena_order(), SimError::LinkDown { device: 4, axis: 1 }),
        (col_first, SimError::LinkDown { device: 13, axis: 0 }),
    ] {
        let sim = Simulation::new(&m, &machine).order(&order).faults(Some(&blocked));
        assert_eq!(sim.run(), Err(down.clone()));
        assert_eq!(sim.tail(8), Err(down.clone()));
        assert_eq!(sim.repeated(2), Err(down));
    }
}
