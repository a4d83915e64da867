//! GTC-like particle-in-cell skeleton.

use bpio::ProcessGroup;
use predata_core::schema::{make_particle_pg, COL_ID, COL_RANK, PARTICLE_WIDTH};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The two particle species GTC outputs each dump ("two 2D arrays for
/// electrons and ions, respectively").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Species {
    Electrons,
    Ions,
}

impl Species {
    pub const BOTH: [Species; 2] = [Species::Electrons, Species::Ions];

    pub fn name(self) -> &'static str {
        match self {
            Species::Electrons => "electrons",
            Species::Ions => "ions",
        }
    }
}

/// All ranks of a GTC-like run, stepped together. (A deliberately
/// single-threaded driver: the middleware under test supplies the
/// parallelism; the app just has to produce the right data.)
pub struct GtcWorld {
    /// `electrons[r]` / `ions[r]` = rank r's particle rows (`np × 8`).
    electrons: Vec<Vec<f64>>,
    ions: Vec<Vec<f64>>,
    rng: StdRng,
    step: u64,
    /// Fraction of each rank's particles that migrate per step.
    pub migration_rate: f64,
}

impl GtcWorld {
    /// `n_ranks` ranks with `particles_per_rank` particles each. Labels
    /// (rank, id) are assigned here and never change — the sort key.
    pub fn new(n_ranks: usize, particles_per_rank: usize, seed: u64) -> Self {
        assert!(n_ranks > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        // Ions are heavier: narrower thermal velocity spread.
        let mut init = |v_spread: f64| -> Vec<Vec<f64>> {
            (0..n_ranks)
                .map(|r| {
                    let mut rows = Vec::with_capacity(particles_per_rank * PARTICLE_WIDTH);
                    for id in 0..particles_per_rank {
                        // x, y, z in a torus-ish box; v_par, v_perp
                        // thermal; statistical weight near 1.
                        rows.extend_from_slice(&[
                            rng.random_range(0.0..std::f64::consts::TAU),
                            rng.random_range(0.0..std::f64::consts::TAU),
                            rng.random_range(-1.0..1.0),
                            rng.random_range(-v_spread..v_spread),
                            rng.random_range(0.0..v_spread),
                            rng.random_range(0.5..1.5),
                            r as f64,
                            id as f64,
                        ]);
                    }
                    rows
                })
                .collect()
        };
        let electrons = init(2.0);
        let ions = init(0.5);
        GtcWorld {
            electrons,
            ions,
            rng,
            step: 0,
            migration_rate: 0.10,
        }
    }

    pub fn n_ranks(&self) -> usize {
        self.electrons.len()
    }

    fn species(&self, s: Species) -> &Vec<Vec<f64>> {
        match s {
            Species::Electrons => &self.electrons,
            Species::Ions => &self.ions,
        }
    }

    /// Advance one iteration: push particles along their velocities,
    /// scatter velocities slightly, and migrate a random subset to random
    /// ranks (the random cross-rank motion the paper describes).
    pub fn step(&mut self) {
        let n_ranks = self.electrons.len();
        // Electrons are fast and migratory; ions drift more slowly.
        for (arrays, vel_noise, migration) in [
            (&mut self.electrons, 0.05, self.migration_rate),
            (&mut self.ions, 0.0125, self.migration_rate * 0.25),
        ] {
            let mut moving: Vec<(usize, Vec<f64>)> = Vec::new();
            for rows in arrays.iter_mut() {
                let n = rows.len() / PARTICLE_WIDTH;
                // Physics-ish update.
                for p in 0..n {
                    let o = p * PARTICLE_WIDTH;
                    rows[o] = (rows[o] + 0.01 * rows[o + 3]).rem_euclid(std::f64::consts::TAU);
                    rows[o + 1] =
                        (rows[o + 1] + 0.01 * rows[o + 4]).rem_euclid(std::f64::consts::TAU);
                    rows[o + 2] = (rows[o + 2] + 0.005 * rows[o + 3]).clamp(-1.0, 1.0);
                    rows[o + 3] += self.rng.random_range(-vel_noise..vel_noise);
                    rows[o + 4] =
                        (rows[o + 4] + self.rng.random_range(-vel_noise..vel_noise)).abs();
                }
                // Select migrants uniformly at random (row swap-remove).
                let n_migrate = ((n as f64) * migration) as usize;
                for _ in 0..n_migrate {
                    let dst = self.rng.random_range(0..n_ranks);
                    let remaining = rows.len() / PARTICLE_WIDTH;
                    let pick = self.rng.random_range(0..remaining);
                    let (o, tail) = (pick * PARTICLE_WIDTH, rows.len() - PARTICLE_WIDTH);
                    let row: Vec<f64> = rows[o..o + PARTICLE_WIDTH].to_vec();
                    rows.copy_within(tail.., o);
                    rows.truncate(tail);
                    moving.push((dst, row));
                }
            }
            for (dst, row) in moving {
                arrays[dst].extend_from_slice(&row);
            }
        }
        self.step += 1;
    }

    /// One rank's electron output process group for the current step.
    /// (GTC outputs two arrays per dump; use
    /// [`GtcWorld::output_species_pg`] for each.)
    pub fn output_pg(&self, rank: usize) -> ProcessGroup {
        self.output_species_pg(rank, Species::Electrons)
    }

    /// One rank's output process group for one species.
    pub fn output_species_pg(&self, rank: usize, species: Species) -> ProcessGroup {
        make_particle_pg(rank as u64, self.step, self.species(species)[rank].clone())
    }

    /// Fraction of particles no longer on their birth rank — a measure of
    /// how out-of-order the arrays have become.
    pub fn displaced_fraction(&self) -> f64 {
        let mut displaced = 0usize;
        let mut total = 0usize;
        for (r, rows) in self.electrons.iter().enumerate() {
            for row in rows.chunks_exact(PARTICLE_WIDTH) {
                total += 1;
                if row[COL_RANK] as usize != r {
                    displaced += 1;
                }
            }
        }
        displaced as f64 / total.max(1) as f64
    }

    /// All electron (rank, id) labels present, for conservation checks.
    pub fn all_labels(&self) -> Vec<(u64, u64)> {
        self.labels_of(Species::Electrons)
    }

    /// All (rank, id) labels of one species.
    pub fn labels_of(&self, species: Species) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .species(species)
            .iter()
            .flat_map(|rows| {
                rows.chunks_exact(PARTICLE_WIDTH)
                    .map(|row| (row[COL_RANK] as u64, row[COL_ID] as u64))
            })
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Particles of one species over all ranks (invariant across steps).
    fn total_of(w: &GtcWorld, s: Species) -> usize {
        w.species(s).iter().map(|r| r.len() / PARTICLE_WIDTH).sum()
    }

    #[test]
    fn particles_conserved_across_steps() {
        let mut w = GtcWorld::new(4, 100, 42);
        let labels0 = w.all_labels();
        assert_eq!(labels0.len(), 400);
        for _ in 0..10 {
            w.step();
        }
        assert_eq!(total_of(&w, Species::Electrons), 400);
        assert_eq!(
            w.all_labels(),
            labels0,
            "labels are immutable and conserved"
        );
    }

    #[test]
    fn migration_disorders_arrays() {
        let mut w = GtcWorld::new(8, 200, 7);
        assert_eq!(w.displaced_fraction(), 0.0);
        for _ in 0..5 {
            w.step();
        }
        assert!(
            w.displaced_fraction() > 0.2,
            "got {}",
            w.displaced_fraction()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = GtcWorld::new(3, 50, 9);
        let mut b = GtcWorld::new(3, 50, 9);
        for _ in 0..3 {
            a.step();
            b.step();
        }
        for r in 0..3 {
            assert_eq!(a.electrons[r], b.electrons[r]);
            assert_eq!(a.ions[r], b.ions[r]);
        }
        let mut c = GtcWorld::new(3, 50, 10);
        c.step();
        assert_ne!(a.electrons[0], c.electrons[0]);
    }

    #[test]
    fn output_pg_is_well_formed() {
        let mut w = GtcWorld::new(2, 30, 1);
        w.step();
        let pg = w.output_pg(1);
        assert_eq!(pg.step, 1);
        assert_eq!(pg.writer_rank, 1);
        assert_eq!(
            predata_core::schema::particle_count(&pg),
            Some((w.electrons[1].len() / PARTICLE_WIDTH) as u64)
        );
    }

    #[test]
    fn two_species_are_independent() {
        let mut w = GtcWorld::new(3, 50, 4);
        assert_eq!(total_of(&w, Species::Electrons), 150);
        assert_eq!(total_of(&w, Species::Ions), 150);
        let e_labels = w.labels_of(Species::Electrons);
        let i_labels = w.labels_of(Species::Ions);
        assert_eq!(e_labels, i_labels, "label spaces coincide at t=0");
        for _ in 0..6 {
            w.step();
        }
        // Conservation per species.
        assert_eq!(w.labels_of(Species::Electrons), e_labels);
        assert_eq!(w.labels_of(Species::Ions), i_labels);
        // Distinct dynamics: different arrays.
        let e = w.output_species_pg(0, Species::Electrons);
        let i = w.output_species_pg(0, Species::Ions);
        assert_ne!(
            predata_core::schema::particles_of(&e),
            predata_core::schema::particles_of(&i)
        );
    }

    #[test]
    fn ions_migrate_less_than_electrons() {
        let mut w = GtcWorld::new(6, 300, 9);
        for _ in 0..8 {
            w.step();
        }
        let displaced = |species: Species| {
            let mut moved = 0;
            let mut total = 0;
            for (r, rows) in w.species(species).iter().enumerate() {
                for row in rows.chunks_exact(PARTICLE_WIDTH) {
                    total += 1;
                    if row[COL_RANK] as usize != r {
                        moved += 1;
                    }
                }
            }
            moved as f64 / total as f64
        };
        assert!(
            displaced(Species::Ions) < displaced(Species::Electrons),
            "ions {:.3} vs electrons {:.3}",
            displaced(Species::Ions),
            displaced(Species::Electrons)
        );
    }

    #[test]
    fn positions_stay_in_box() {
        let mut w = GtcWorld::new(2, 100, 3);
        for _ in 0..50 {
            w.step();
        }
        for rows in w.electrons.iter().chain(&w.ions) {
            for row in rows.chunks_exact(PARTICLE_WIDTH) {
                assert!((0.0..std::f64::consts::TAU + 1e-4).contains(&row[0]));
                assert!((0.0..std::f64::consts::TAU + 1e-4).contains(&row[1]));
                assert!((-1.0..=1.0).contains(&row[2]));
            }
        }
    }
}
