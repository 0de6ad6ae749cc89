//! Concrete-syntax printer for meta-operator flows (Fig. 13 style).

use std::fmt::{self, Write as _};

use crate::{ArraySet, Flow, MemDirection, MemLoc, Stmt};

/// Renders a flow in the Fig. 13-style concrete syntax. The text is
/// output only: flows are read back from `core::artifact`'s wire format.
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
        print_stmt(&mut out, stmt, 0);
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

fn print_stmt(out: &mut String, stmt: &Stmt, depth: usize) {
    indent(out, depth);
    match stmt {
        Stmt::Switch { kind, arrays } => {
            let _ = writeln!(out, "CM.switch({}, {})", kind.keyword(), Ids(arrays));
        }
        Stmt::Compute(c) => {
            let _ = writeln!(
                out,
                "CIM.mmm(%{}, c={}, min={}, mout={}, m={}, k={}, n={}, units={}, in={}, out={}, {})",
                c.op,
                Ids(&c.compute_arrays),
                Ids(&c.mem_in_arrays),
                Ids(&c.mem_out_arrays),
                c.m,
                c.k,
                c.n,
                c.units,
                c.in_bytes,
                c.out_bytes,
                if c.weight_static { "static" } else { "dynamic" }
            );
        }
        Stmt::LoadWeights(w) => {
            let _ = writeln!(out, "MEM.loadw(%{}, {}, {})", w.op, Ids(&w.arrays), w.bytes);
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
            let _ = writeln!(out, "MEM.{verb}({loc}, {}, \"{}\")", m.bytes, m.label);
        }
        Stmt::Vector(v) => {
            let _ = writeln!(out, "FU.vec(%{}, {})", v.op, v.flops);
        }
        Stmt::Parallel(inner) => {
            let _ = writeln!(out, "parallel {{");
            for s in inner {
                print_stmt(out, s, depth + 1);
            }
            indent(out, depth);
            out.push_str("}\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComputeStmt, MemStmt, SwitchKind, VectorStmt, WeightLoadStmt};
    use cmswitch_arch::ArrayId;

    #[test]
    fn prints_all_statement_kinds() {
        let compute = |op: &str, weight_static: bool| {
            Stmt::Compute(ComputeStmt {
                op: op.into(),
                compute_arrays: [ArrayId(0)].into(),
                mem_in_arrays: [ArrayId(1)].into(),
                mem_out_arrays: ArraySet::new(),
                m: 2,
                k: 3,
                n: 4,
                units: 1,
                in_bytes: 6,
                out_bytes: 8,
                weight_static,
            })
        };
        let mem = |loc: MemLoc, direction: MemDirection, bytes: u64, label: &str| {
            Stmt::Mem(MemStmt {
                loc,
                direction,
                bytes,
                label: label.into(),
            })
        };
        let mut f = Flow::new("all");
        f.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0)]));
        f.push(Stmt::switch(SwitchKind::ToMemory, vec![ArrayId(1), ArrayId(2)]));
        f.push(mem(MemLoc::Main, MemDirection::Read, 64, "input"));
        f.push(Stmt::Parallel(vec![
            Stmt::LoadWeights(WeightLoadStmt {
                op: "fc1".into(),
                arrays: [ArrayId(0)].into(),
                bytes: 100,
            }),
            compute("fc1", true),
            compute("attn", false),
            Stmt::Vector(VectorStmt {
                op: "softmax".into(),
                flops: 99,
            }),
            mem(MemLoc::Buffer, MemDirection::Read, 5, "act"),
        ]));
        f.push(Stmt::Parallel(vec![]));
        f.push(mem(
            MemLoc::CimArrays([ArrayId(1), ArrayId(2)].into()),
            MemDirection::Write,
            7,
            "spill",
        ));
        f.push(mem(MemLoc::CimArrays(ArraySet::new()), MemDirection::Read, 0, ""));
        let expected = "\
# flow: all
CM.switch(TOC, [0])
CM.switch(TOM, [1,2])
MEM.read(main, 64, \"input\")
parallel {
  MEM.loadw(%fc1, [0], 100)
  CIM.mmm(%fc1, c=[0], min=[1], mout=[], m=2, k=3, n=4, units=1, in=6, out=8, static)
  CIM.mmm(%attn, c=[0], min=[1], mout=[], m=2, k=3, n=4, units=1, in=6, out=8, dynamic)
  FU.vec(%softmax, 99)
  MEM.read(buffer, 5, \"act\")
}
parallel {
}
MEM.write(cim[1,2], 7, \"spill\")
MEM.read(cim[], 0, \"\")
";
        assert_eq!(print_flow(&f), expected);
    }
}
