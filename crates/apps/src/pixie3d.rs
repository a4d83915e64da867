//! Pixie3D-like MHD skeleton.
//!
//! Eight 3-D fields on a block-decomposed global grid, evolved by smooth
//! analytic kernels (travelling waves) — enough structure that the
//! diagnostic quantities of the paper's Fig. 2 pipeline (energy, flux,
//! divergence, maximum velocity) are non-trivial and checkable.

use std::collections::HashMap;

use bpio::ProcessGroup;
use predata_core::schema::{make_pixie_pg, PIXIE_FIELDS};

/// All ranks of a Pixie3D-like run.
pub struct PixieWorld {
    /// Ranks per dimension of the block grid.
    pub(crate) grid: [u64; 3],
    /// Local box extents per rank (paper production setting: 32³).
    pub(crate) local: [u64; 3],
    time: f64,
    step: u64,
    /// Wave phase speed (per step).
    pub dt: f64,
}

impl PixieWorld {
    pub fn new(grid: [u64; 3], local: [u64; 3]) -> Self {
        assert!(grid.iter().all(|&g| g > 0) && local.iter().all(|&l| l > 0));
        PixieWorld {
            grid,
            local,
            time: 0.0,
            step: 0,
            dt: 0.1,
        }
    }

    pub fn n_ranks(&self) -> usize {
        (self.grid[0] * self.grid[1] * self.grid[2]) as usize
    }

    pub fn global_dims(&self) -> [u64; 3] {
        [
            self.grid[0] * self.local[0],
            self.grid[1] * self.local[1],
            self.grid[2] * self.local[2],
        ]
    }

    /// Block offset of a rank (row-major rank → grid coordinate).
    pub fn offset_of(&self, rank: usize) -> [u64; 3] {
        let r = rank as u64;
        let gz = self.grid[2];
        let gy = self.grid[1];
        [
            r / (gy * gz) * self.local[0],
            (r / gz % gy) * self.local[1],
            (r % gz) * self.local[2],
        ]
    }

    /// Advance one iteration (the paper's inner loop: ~0.7 s of compute
    /// between collective-heavy phases; here just the wave phase).
    pub fn step(&mut self) {
        self.time += self.dt;
        self.step += 1;
    }

    /// Field value at a global grid point. Smooth, bounded, div-free-ish
    /// momenta.
    pub fn field_at(&self, field: &str, g: [u64; 3]) -> f64 {
        let d = self.global_dims();
        let x = g[0] as f64 / d[0] as f64 * std::f64::consts::TAU;
        let y = g[1] as f64 / d[1] as f64 * std::f64::consts::TAU;
        let z = g[2] as f64 / d[2] as f64 * std::f64::consts::TAU;
        let t = self.time;
        match field {
            "rho" => 1.0 + 0.5 * (x + t).sin() * (y).cos(),
            "px" => (y + t).sin() * (z).cos(),
            "py" => (z + t).sin() * (x).cos(),
            "pz" => (x + t).sin() * (y).cos(),
            "ax" => 0.3 * (z - t).cos(),
            "ay" => 0.3 * (x - t).cos(),
            "az" => 0.3 * (y - t).cos(),
            "temp" => 2.0 + (x * 2.0 + t).cos() * (z).sin() * 0.25,
            _ => panic!("unknown field `{field}`"),
        }
    }

    /// One rank's local chunk of a field.
    pub(crate) fn local_field(&self, field: &str, rank: usize) -> Vec<f64> {
        let off = self.offset_of(rank);
        let mut v = Vec::with_capacity((self.local[0] * self.local[1] * self.local[2]) as usize);
        for i in 0..self.local[0] {
            for j in 0..self.local[1] {
                for k in 0..self.local[2] {
                    v.push(self.field_at(field, [off[0] + i, off[1] + j, off[2] + k]));
                }
            }
        }
        v
    }

    /// One rank's output process group (all eight fields).
    pub fn output_pg(&self, rank: usize) -> ProcessGroup {
        let fields: HashMap<&str, Vec<f64>> = PIXIE_FIELDS
            .iter()
            .map(|&f| (f, self.local_field(f, rank)))
            .collect();
        make_pixie_pg(
            rank as u64,
            self.step,
            self.local,
            self.global_dims(),
            self.offset_of(rank),
            fields,
        )
    }

    // ---- diagnostics (the Fig. 2 derived quantities) ----

    /// Total kinetic-ish energy: Σ (px²+py²+pz²) / (2 rho), over a rank's
    /// chunk.
    pub fn local_energy(&self, rank: usize) -> f64 {
        let rho = self.local_field("rho", rank);
        let px = self.local_field("px", rank);
        let py = self.local_field("py", rank);
        let pz = self.local_field("pz", rank);
        rho.iter()
            .zip(&px)
            .zip(&py)
            .zip(&pz)
            .map(|(((r, x), y), z)| (x * x + y * y + z * z) / (2.0 * r))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_tile_the_global_grid() {
        let w = PixieWorld::new([2, 3, 2], [4, 4, 4]);
        assert_eq!(w.n_ranks(), 12);
        assert_eq!(w.global_dims(), [8, 12, 8]);
        let mut seen = std::collections::HashSet::new();
        for r in 0..w.n_ranks() {
            let o = w.offset_of(r);
            assert!(seen.insert(o), "offset {o:?} duplicated");
            assert!(o[0] < 8 && o[1] < 12 && o[2] < 8);
            assert_eq!([o[0] % 4, o[1] % 4, o[2] % 4], [0, 0, 0]);
        }
    }

    #[test]
    fn chunks_agree_with_global_function() {
        let w = PixieWorld::new([2, 2, 2], [3, 3, 3]);
        let rank = 5;
        let chunk = w.local_field("rho", rank);
        let off = w.offset_of(rank);
        let mut idx = 0;
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    assert_eq!(
                        chunk[idx],
                        w.field_at("rho", [off[0] + i, off[1] + j, off[2] + k])
                    );
                    idx += 1;
                }
            }
        }
    }

    #[test]
    fn fields_evolve_with_time() {
        let mut w = PixieWorld::new([1, 1, 1], [8, 8, 8]);
        let before = w.local_field("px", 0);
        w.step();
        let after = w.local_field("px", 0);
        assert_ne!(before, after);
    }

    #[test]
    fn output_pg_has_eight_global_chunks() {
        let w = PixieWorld::new([2, 1, 1], [4, 4, 4]);
        let pg = w.output_pg(1);
        for f in PIXIE_FIELDS {
            let v = pg.var(f).unwrap();
            assert_eq!(v.global, vec![8, 4, 4]);
            assert_eq!(v.offset, vec![4, 0, 0]);
        }
    }

    #[test]
    fn energy_is_finite_and_positive() {
        let w = PixieWorld::new([2, 2, 1], [4, 4, 4]);
        for r in 0..w.n_ranks() {
            let e = w.local_energy(r);
            assert!(e.is_finite() && e >= 0.0);
        }
    }

    #[test]
    fn density_stays_physical() {
        let mut w = PixieWorld::new([1, 1, 1], [16, 16, 16]);
        for _ in 0..20 {
            w.step();
        }
        let rho = w.local_field("rho", 0);
        assert!(rho.iter().all(|&r| r > 0.0), "density must stay positive");
    }
}
