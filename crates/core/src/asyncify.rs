//! Conversion of blocking collective permutes into asynchronous
//! start/done pairs (§5.2).

use overlap_hlo::{Builder, InstrId, Module, ModuleAnalysis, Op};

/// Splits every synchronous `CollectivePermute` into a
/// `CollectivePermuteStart` immediately followed by its
/// `CollectivePermuteDone`.
///
/// The start "simply starts the data transfer … and takes almost no
/// execution time"; the done marks completion. Adjacent placement keeps
/// the module semantically identical to the synchronous form — creating
/// the actual overlap is the *scheduler's* job (it moves the start as
/// early and the done as late as data dependences allow).
///
/// Returns the rewritten module with its [`ModuleAnalysis`], maintained
/// append-by-append by the builder.
///
/// # Panics
///
/// Panics if the module is malformed (operands after users).
#[must_use]
pub fn asyncify(module: &Module) -> (Module, ModuleAnalysis) {
    let mut b = Builder::new(module.name().to_string(), module.num_partitions());
    let mut map: Vec<Option<InstrId>> = vec![None; module.len()];
    for (id, ins) in module.iter() {
        let operands: Vec<InstrId> = ins
            .operands()
            .iter()
            .map(|o| map[o.index()].expect("operands precede users"))
            .collect();
        let new_id = if let Op::CollectivePermute { pairs, wire } = ins.op() {
            b.set_tag(ins.tag());
            let start =
                b.collective_permute_start_wire(operands[0], pairs.clone(), *wire, ins.name());
            let done = b.collective_permute_done(start, &format!("{}.done", ins.name()));
            b.set_tag(None);
            done
        } else {
            b.copy_of(module, id, operands)
        };
        map[id.index()] = Some(new_id);
    }
    let outputs = module
        .outputs()
        .iter()
        .map(|o| map[o.index()].expect("outputs mapped"))
        .collect();
    b.build_with_analysis(outputs)
}

#[cfg(test)]
mod tests {
    use overlap_hlo::{DType, Shape};

    use super::*;

    #[test]
    fn permutes_become_start_done_pairs() {
        let mut b = Builder::new("m", 2);
        let x = b.parameter(Shape::new(DType::F32, vec![4]), "x");
        b.set_tag(Some("lce.cp"));
        let p = b.collective_permute(x, vec![(0, 1), (1, 0)], "p");
        b.set_tag(None);
        let c = b.copy(p, "c");
        let m = b.build(vec![c]);

        let (a, _) = asyncify(&m);
        a.verify().unwrap();
        assert_eq!(a.count_live(|i| matches!(i.op(), Op::CollectivePermute { .. })), 0);
        assert_eq!(
            a.count_live(|i| matches!(i.op(), Op::CollectivePermuteStart { .. })),
            1
        );
        assert_eq!(a.count_live(|i| matches!(i.op(), Op::CollectivePermuteDone)), 1);
        // The start keeps the pass tag so later passes can find it.
        let start = a
            .iter()
            .find(|(_, i)| matches!(i.op(), Op::CollectivePermuteStart { .. }))
            .unwrap();
        assert_eq!(start.1.tag(), Some("lce.cp"));
    }

    #[test]
    fn modules_without_permutes_are_unchanged_in_size() {
        let mut b = Builder::new("m", 2);
        let x = b.parameter(Shape::new(DType::F32, vec![4]), "x");
        let c = b.copy(x, "c");
        let m = b.build(vec![c]);
        let (a, _) = asyncify(&m);
        assert_eq!(a.len(), m.len());
    }
}
