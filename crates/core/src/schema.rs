//! Output-group schemas of the two driver applications.
//!
//! GTC emits two 2-D particle arrays (electrons, ions): one row per
//! particle, eight attributes per row — coordinates, velocities, weight,
//! and the two label attributes (owning process rank at t=0 and local id)
//! that jointly identify a particle for its whole lifetime. Pixie3D emits
//! eight 3-D field chunks on a block decomposition.

use std::collections::HashMap;

use bpio::{DataArray, Dim, Dtype, GroupDef, ProcessGroup, VarDef};

/// Attributes of one GTC particle, in column order.
pub const PARTICLE_ATTRS: [&str; 8] = ["x", "y", "z", "v_par", "v_perp", "weight", "rank", "id"];

/// Number of attributes per particle row.
pub const PARTICLE_WIDTH: usize = 8;

/// Column of the owning-process-rank label attribute.
pub const COL_RANK: usize = 6;
/// Column of the local-id label attribute.
pub const COL_ID: usize = 7;

/// The GTC particle output group: a particle count and an `np × 8` local
/// array per species.
pub(crate) fn gtc_particle_group() -> GroupDef {
    GroupDef::new(vec![
        VarDef::scalar("np", Dtype::U64),
        VarDef::local("particles", Dtype::F64, vec![Dim::r("np"), Dim::c(8)]),
    ])
    .expect("static group is valid")
}

/// Build one rank's particle process group. `particles` is row-major
/// `n × 8`.
pub fn make_particle_pg(rank: u64, step: u64, particles: Vec<f64>) -> ProcessGroup {
    assert_eq!(particles.len() % PARTICLE_WIDTH, 0, "rows of 8 attributes");
    let def = gtc_particle_group();
    let np = (particles.len() / PARTICLE_WIDTH) as u64;
    let mut pg = ProcessGroup::new("gtc_particles", rank, step);
    pg.write(&def, "np", DataArray::U64(vec![np]))
        .expect("np is declared");
    pg.write(&def, "particles", DataArray::F64(particles))
        .expect("length validated");
    pg
}

/// Particle rows of a particle PG (row-major `n × 8`).
pub fn particles_of(pg: &ProcessGroup) -> Option<&[f64]> {
    pg.var("particles")?.data.as_f64()
}

/// Particle count of a particle PG.
pub fn particle_count(pg: &ProcessGroup) -> Option<u64> {
    pg.var("np")?.data.as_u64().map(|v| v[0])
}

/// The global sort key of a particle row: (rank, id) packed so ordering
/// by key equals lexicographic ordering by label.
pub fn particle_key(row: &[f64]) -> u64 {
    debug_assert_eq!(row.len(), PARTICLE_WIDTH);
    label_key(row[COL_RANK], row[COL_ID])
}

/// [`particle_key`] from the two label attributes alone, for callers
/// that hold a row in another form than `&[f64]`.
pub(crate) fn label_key(rank: f64, id: f64) -> u64 {
    ((rank as u64) << 32) | (id as u64 & 0xffff_ffff)
}

/// The eight Pixie3D field variables, in output order.
pub const PIXIE_FIELDS: [&str; 8] = ["rho", "px", "py", "pz", "ax", "ay", "az", "temp"];

/// The Pixie3D output group: eight 3-D global doubles, block-decomposed.
/// Global extents and this rank's offsets are carried as scalars.
pub(crate) fn pixie3d_group(local: [u64; 3]) -> GroupDef {
    let mut vars = vec![
        VarDef::scalar("gx", Dtype::U64),
        VarDef::scalar("gy", Dtype::U64),
        VarDef::scalar("gz", Dtype::U64),
        VarDef::scalar("ox", Dtype::U64),
        VarDef::scalar("oy", Dtype::U64),
        VarDef::scalar("oz", Dtype::U64),
    ];
    for f in PIXIE_FIELDS {
        vars.push(VarDef::global_chunk(
            f,
            Dtype::F64,
            vec![Dim::r("gx"), Dim::r("gy"), Dim::r("gz")],
            vec![Dim::c(local[0]), Dim::c(local[1]), Dim::c(local[2])],
            vec![Dim::r("ox"), Dim::r("oy"), Dim::r("oz")],
        ));
    }
    GroupDef::new(vars).expect("static group is valid")
}

/// Build one rank's Pixie3D process group from its eight local field
/// chunks (each of `local[0]*local[1]*local[2]` doubles).
pub fn make_pixie_pg(
    rank: u64,
    step: u64,
    local: [u64; 3],
    global: [u64; 3],
    offset: [u64; 3],
    fields: HashMap<&str, Vec<f64>>,
) -> ProcessGroup {
    let def = pixie3d_group(local);
    let mut pg = ProcessGroup::new("pixie3d", rank, step);
    for (name, v) in [
        ("gx", global[0]),
        ("gy", global[1]),
        ("gz", global[2]),
        ("ox", offset[0]),
        ("oy", offset[1]),
        ("oz", offset[2]),
    ] {
        pg.write(&def, name, DataArray::U64(vec![v]))
            .expect("scalars declared");
    }
    for f in PIXIE_FIELDS {
        let data = fields
            .get(f)
            .unwrap_or_else(|| panic!("field `{f}` missing"))
            .clone();
        pg.write(&def, f, DataArray::F64(data))
            .expect("length validated");
    }
    pg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn particle_pg_roundtrip() {
        let rows: Vec<f64> = vec![
            1.0, 2.0, 3.0, 0.1, 0.2, 0.9, 5.0, 17.0, // particle (rank 5, id 17)
            4.0, 5.0, 6.0, 0.3, 0.4, 0.8, 2.0, 3.0, // particle (rank 2, id 3)
        ];
        let pg = make_particle_pg(7, 1, rows.clone());
        assert_eq!(particle_count(&pg), Some(2));
        assert_eq!(particles_of(&pg).unwrap(), &rows[..]);
    }

    #[test]
    fn particle_key_orders_by_label() {
        let a = [0.0; 6]
            .iter()
            .copied()
            .chain([1.0, 5.0])
            .collect::<Vec<_>>();
        let b = [0.0; 6]
            .iter()
            .copied()
            .chain([1.0, 6.0])
            .collect::<Vec<_>>();
        let c = [0.0; 6]
            .iter()
            .copied()
            .chain([2.0, 0.0])
            .collect::<Vec<_>>();
        assert!(particle_key(&a) < particle_key(&b));
        assert!(particle_key(&b) < particle_key(&c));
    }

    #[test]
    #[should_panic(expected = "rows of 8")]
    fn ragged_particles_rejected() {
        make_particle_pg(0, 0, vec![1.0; 9]);
    }

    #[test]
    fn pixie_pg_has_eight_fields() {
        let local = [4, 4, 4];
        let n = 64;
        let fields: HashMap<&str, Vec<f64>> =
            PIXIE_FIELDS.iter().map(|&f| (f, vec![1.0; n])).collect();
        let pg = make_pixie_pg(0, 0, local, [8, 8, 8], [4, 0, 0], fields);
        for f in PIXIE_FIELDS {
            let v = pg.var(f).unwrap();
            assert_eq!(v.local, vec![4, 4, 4]);
            assert_eq!(v.global, vec![8, 8, 8]);
            assert_eq!(v.offset, vec![4, 0, 0]);
        }
    }

    #[test]
    #[should_panic(expected = "missing")]
    fn pixie_pg_requires_all_fields() {
        make_pixie_pg(0, 0, [2, 2, 2], [2, 2, 2], [0, 0, 0], HashMap::new());
    }
}
