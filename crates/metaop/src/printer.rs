//! Concrete-syntax printer for meta-operator flows (Fig. 13 style).

use std::fmt::{self, Write as _};

use crate::{ArraySet, Flow, MemDirection, MemLoc, Stmt};

/// Renders a flow in the Fig. 13-style concrete syntax. The text is
/// output only: flows are read back from `core::artifact`'s wire format.
///
/// Operators appear by name (`%fc1`), a compute statement with its
/// op-table shape, and a vector statement as its operator's fused work
/// (`%fc1.aux`). An op index past the table prints as `%?<index>`.
///
/// # Example
///
/// ```
/// use cmswitch_arch::ArrayId;
/// use cmswitch_metaop::{print_flow, Flow, Stmt, SwitchKind};
///
/// let mut f = Flow::new("m");
/// f.push(Stmt::switch(SwitchKind::ToMemory, vec![ArrayId(3)]));
/// let text = print_flow(&f);
/// assert!(text.contains("CM.switch(TOM, [3])"));
/// ```
pub fn print_flow(flow: &Flow) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# flow: {}", flow.name());
    for stmt in flow.stmts() {
        print_stmt(&mut out, flow, stmt, 0);
    }
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// An array list as `[a,b,c]`, written id by id.
struct Ids<'a>(&'a ArraySet);

impl fmt::Display for Ids<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('[')?;
        for (i, a) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_char(',')?;
            }
            write!(f, "{}", a.0)?;
        }
        f.write_char(']')
    }
}

fn print_stmt(out: &mut String, flow: &Flow, stmt: &Stmt, depth: usize) {
    indent(out, depth);
    match stmt {
        Stmt::Switch { kind, arrays } => {
            let _ = writeln!(out, "CM.switch({}, {})", kind.keyword(), Ids(arrays));
        }
        Stmt::Compute(c) => {
            let _ = write!(
                out,
                "CIM.mmm(%{}, c={}, min={}, mout={}",
                flow.op_name(c.op),
                Ids(&c.compute_arrays),
                Ids(&c.mem_in_arrays),
                Ids(&c.mem_out_arrays),
            );
            let _ = match flow.op(c.op) {
                Some(op) => writeln!(
                    out,
                    ", m={}, k={}, n={}, units={}, in={}, out={}, {})",
                    op.m,
                    op.k,
                    op.n,
                    op.units,
                    op.in_bytes,
                    op.out_bytes,
                    if op.weight_static { "static" } else { "dynamic" }
                ),
                None => writeln!(out, ")"),
            };
        }
        Stmt::LoadWeights(w) => {
            let _ = writeln!(
                out,
                "MEM.loadw(%{}, {}, {})",
                flow.op_name(w.op),
                Ids(&w.arrays),
                w.bytes
            );
        }
        Stmt::Mem(m) => {
            let verb = match m.direction {
                MemDirection::Read => "read",
                MemDirection::Write => "write",
            };
            let loc = match &m.loc {
                MemLoc::Main => "main".to_string(),
                MemLoc::Buffer => "buffer".to_string(),
                MemLoc::CimArrays(a) => format!("cim{}", Ids(a)),
            };
            let _ = writeln!(out, "MEM.{verb}({loc}, {}, \"{}\")", m.bytes, m.kind);
        }
        Stmt::Vector(v) => {
            let _ = writeln!(out, "FU.vec(%{}.aux, {})", flow.op_name(v.op), v.flops);
        }
        Stmt::Parallel(inner) => {
            let _ = writeln!(out, "parallel {{");
            for s in inner {
                print_stmt(out, flow, s, depth + 1);
            }
            indent(out, depth);
            out.push_str("}\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComputeStmt, FlowOp, MemKind, MemStmt, SwitchKind, VectorStmt, WeightLoadStmt};
    use cmswitch_arch::ArrayId;

    #[test]
    fn prints_all_statement_kinds() {
        let mut f = Flow::new("all");
        let mut op = |name: &str, weight_static: bool| {
            f.push_op(FlowOp {
                name: name.into(),
                source: 0,
                m: 2,
                k: 3,
                n: 4,
                units: 1,
                in_bytes: 6,
                out_bytes: 8,
                weight_static,
            })
        };
        let (fc1, attn) = (op("fc1", true), op("attn", false));
        let compute = |op: u32| {
            Stmt::Compute(ComputeStmt {
                op,
                compute_arrays: [ArrayId(0)].into(),
                mem_in_arrays: [ArrayId(1)].into(),
                mem_out_arrays: ArraySet::new(),
            })
        };
        let mem = |loc: MemLoc, direction: MemDirection, bytes: u64, kind: MemKind| {
            Stmt::Mem(MemStmt {
                loc,
                direction,
                bytes,
                kind,
            })
        };
        f.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0)]));
        f.push(Stmt::switch(SwitchKind::ToMemory, vec![ArrayId(1), ArrayId(2)]));
        f.push(mem(MemLoc::Main, MemDirection::Read, 64, MemKind::Transfer));
        f.push(Stmt::Parallel(vec![
            Stmt::LoadWeights(WeightLoadStmt {
                op: fc1,
                arrays: [ArrayId(0)].into(),
                bytes: 100,
            }),
            compute(fc1),
            compute(attn),
            Stmt::Vector(VectorStmt {
                op: attn,
                flops: 99,
            }),
            mem(MemLoc::Buffer, MemDirection::Read, 5, MemKind::Transfer),
        ]));
        f.push(Stmt::Parallel(vec![]));
        f.push(mem(
            MemLoc::CimArrays([ArrayId(1), ArrayId(2)].into()),
            MemDirection::Write,
            7,
            MemKind::Writeback { segment: 2 },
        ));
        f.push(mem(MemLoc::CimArrays(ArraySet::new()), MemDirection::Read, 0, MemKind::FinalOutput));
        // An index past the table prints; `validate` is what rejects it.
        f.push(compute(7));
        let expected = "\
# flow: all
CM.switch(TOC, [0])
CM.switch(TOM, [1,2])
MEM.read(main, 64, \"transfer\")
parallel {
  MEM.loadw(%fc1, [0], 100)
  CIM.mmm(%fc1, c=[0], min=[1], mout=[], m=2, k=3, n=4, units=1, in=6, out=8, static)
  CIM.mmm(%attn, c=[0], min=[1], mout=[], m=2, k=3, n=4, units=1, in=6, out=8, dynamic)
  FU.vec(%attn.aux, 99)
  MEM.read(buffer, 5, \"transfer\")
}
parallel {
}
MEM.write(cim[1,2], 7, \"seg2 writeback\")
MEM.read(cim[], 0, \"final output\")
CIM.mmm(%?7, c=[0], min=[1], mout=[])
";
        assert_eq!(print_flow(&f), expected);
    }
}
