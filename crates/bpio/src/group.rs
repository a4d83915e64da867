//! Output-group declarations (the ADIOS "data group definition").
//!
//! A group names the variables an application emits each I/O step. The
//! declaration is the *coordination metadata* PreDatA relies on: operators
//! in the staging area discover array shapes, global bounds and chunk
//! offsets from it rather than from application code.

use std::collections::HashMap;

use crate::dtype::Dtype;
use crate::error::{BpError, Result};

/// One dimension extent: a constant or a reference to an integer scalar
/// variable in the same group (resolved per process group at write time,
/// mirroring ADIOS' string dimensions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dim {
    Const(u64),
    Ref(String),
}

impl Dim {
    pub fn c(v: u64) -> Dim {
        Dim::Const(v)
    }

    pub fn r(name: impl Into<String>) -> Dim {
        Dim::Ref(name.into())
    }
}

/// The kind of a variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum VarKind {
    /// A single scalar value per writer.
    Scalar,
    /// A per-writer local array (not part of any global space).
    Local { dims: Vec<Dim> },
    /// A chunk of a global array: the writer owns the box
    /// `[offset, offset+local)` of the global extents.
    GlobalChunk {
        global: Vec<Dim>,
        local: Vec<Dim>,
        offset: Vec<Dim>,
    },
}

/// One declared variable.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDef {
    pub name: String,
    pub(crate) dtype: Dtype,
    pub(crate) kind: VarKind,
}

impl VarDef {
    pub fn scalar(name: impl Into<String>, dtype: Dtype) -> Self {
        VarDef {
            name: name.into(),
            dtype,
            kind: VarKind::Scalar,
        }
    }

    pub fn local(name: impl Into<String>, dtype: Dtype, dims: Vec<Dim>) -> Self {
        VarDef {
            name: name.into(),
            dtype,
            kind: VarKind::Local { dims },
        }
    }

    pub fn global_chunk(
        name: impl Into<String>,
        dtype: Dtype,
        global: Vec<Dim>,
        local: Vec<Dim>,
        offset: Vec<Dim>,
    ) -> Self {
        VarDef {
            name: name.into(),
            dtype,
            kind: VarKind::GlobalChunk {
                global,
                local,
                offset,
            },
        }
    }
}

/// A validated group of variable declarations.
#[derive(Debug, Clone)]
pub struct GroupDef {
    vars: Vec<VarDef>,
    index: HashMap<String, usize>,
}

impl GroupDef {
    /// Validate and build. Rules: unique names; `Dim::Ref`s must name
    /// `u64` scalars in the group; global chunks need equal ranks for
    /// global/local/offset.
    pub fn new(vars: Vec<VarDef>) -> Result<GroupDef> {
        let mut index = HashMap::with_capacity(vars.len());
        for (i, v) in vars.iter().enumerate() {
            if index.insert(v.name.clone(), i).is_some() {
                return Err(BpError::DuplicateVar(v.name.clone()));
            }
        }
        let is_u64_scalar = |n: &str| {
            index.get(n).is_some_and(|&i| {
                matches!(vars[i].kind, VarKind::Scalar) && vars[i].dtype == Dtype::U64
            })
        };
        let check_dims = |dims: &[Dim], var: &str| -> Result<()> {
            for d in dims {
                if let Dim::Ref(n) = d {
                    if !is_u64_scalar(n) {
                        return Err(BpError::BadDecl(format!(
                            "variable `{var}` dimension references `{n}`, which is not a u64 scalar in the group"
                        )));
                    }
                }
            }
            Ok(())
        };
        for v in &vars {
            match &v.kind {
                VarKind::Scalar => {}
                VarKind::Local { dims } => check_dims(dims, &v.name)?,
                VarKind::GlobalChunk {
                    global,
                    local,
                    offset,
                } => {
                    if global.len() != local.len() || local.len() != offset.len() {
                        return Err(BpError::BadDecl(format!(
                            "variable `{}`: global/local/offset ranks differ",
                            v.name
                        )));
                    }
                    check_dims(global, &v.name)?;
                    check_dims(local, &v.name)?;
                    check_dims(offset, &v.name)?;
                }
            }
        }
        Ok(GroupDef { vars, index })
    }

    pub(crate) fn var(&self, name: &str) -> Option<&VarDef> {
        self.index.get(name).map(|&i| &self.vars[i])
    }

    /// Resolve a dim list against this process's scalar values.
    pub(crate) fn resolve_dims(
        &self,
        dims: &[Dim],
        scalars: &HashMap<String, u64>,
    ) -> Result<Vec<u64>> {
        dims.iter()
            .map(|d| match d {
                Dim::Const(v) => Ok(*v),
                Dim::Ref(n) => scalars
                    .get(n)
                    .copied()
                    .ok_or_else(|| BpError::BadDecl(format!("unresolved dimension scalar `{n}`"))),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Pixie3D output group: eight 3-D global doubles on a block
    /// decomposition, 32^3 local boxes.
    pub(crate) fn pixie_group() -> GroupDef {
        let fields = ["rho", "px", "py", "pz", "ax", "ay", "az", "temp"];
        let mut vars = vec![
            VarDef::scalar("gx", Dtype::U64),
            VarDef::scalar("gy", Dtype::U64),
            VarDef::scalar("gz", Dtype::U64),
            VarDef::scalar("ox", Dtype::U64),
            VarDef::scalar("oy", Dtype::U64),
            VarDef::scalar("oz", Dtype::U64),
        ];
        for f in fields {
            vars.push(VarDef::global_chunk(
                f,
                Dtype::F64,
                vec![Dim::r("gx"), Dim::r("gy"), Dim::r("gz")],
                vec![Dim::c(32), Dim::c(32), Dim::c(32)],
                vec![Dim::r("ox"), Dim::r("oy"), Dim::r("oz")],
            ));
        }
        GroupDef::new(vars).unwrap()
    }

    #[test]
    fn pixie_group_validates() {
        let g = pixie_group();
        assert_eq!(g.vars.len(), 14);
        assert!(g.var("rho").is_some());
        assert!(g.var("nope").is_none());
    }

    #[test]
    fn duplicate_rejected() {
        let e = GroupDef::new(vec![
            VarDef::scalar("a", Dtype::U64),
            VarDef::scalar("a", Dtype::F64),
        ])
        .unwrap_err();
        assert!(matches!(e, BpError::DuplicateVar(_)));
    }

    #[test]
    fn ref_must_be_integer_scalar() {
        let e = GroupDef::new(vec![
            VarDef::scalar("n", Dtype::F64), // float, not allowed as dim
            VarDef::local("x", Dtype::F64, vec![Dim::r("n")]),
        ])
        .unwrap_err();
        assert!(matches!(e, BpError::BadDecl(_)));
    }

    #[test]
    fn rank_mismatch_rejected() {
        let e = GroupDef::new(vec![VarDef::global_chunk(
            "x",
            Dtype::F64,
            vec![Dim::c(4), Dim::c(4)],
            vec![Dim::c(2)],
            vec![Dim::c(0)],
        )])
        .unwrap_err();
        assert!(matches!(e, BpError::BadDecl(_)));
    }

    #[test]
    fn resolve_dims_mixes_const_and_ref() {
        let g = pixie_group();
        let mut scalars = HashMap::new();
        scalars.insert("gx".to_string(), 64);
        scalars.insert("gy".to_string(), 64);
        scalars.insert("gz".to_string(), 128);
        let VarKind::GlobalChunk { global, local, .. } = &g.var("rho").unwrap().kind else {
            unreachable!()
        };
        assert_eq!(g.resolve_dims(global, &scalars).unwrap(), vec![64, 64, 128]);
        assert_eq!(g.resolve_dims(local, &scalars).unwrap(), vec![32, 32, 32]);
        assert!(g.resolve_dims(&[Dim::r("missing")], &scalars).is_err());
    }
}
