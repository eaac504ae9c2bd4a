//! Checkpoint / restart.
//!
//! The paper's full accuracy runs take two days per compute mode on the
//! GPU; a production framework must survive job-time limits. This module
//! serialises the complete propagation state — wave functions, reference
//! orbitals, eigenvalues, occupations, potential, induced field, clock,
//! and the ionic subsystem — into a versioned little-endian binary
//! format, such that a restored run continues **bit-for-bit** identically
//! (verified by test): essential for a deviation-based precision study,
//! where a restart artefact would masquerade as precision error.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dcmesh_lfd::{LfdParams, LfdState};
use dcmesh_numerics::{Complex, Real};
use dcmesh_qxmd::{AtomicSystem, Species};
use std::fmt;

/// File magic: "DCMESHCK".
const MAGIC: &[u8; 8] = b"DCMESHCK";
/// Format version. Version 3 added the boundary excitation count, which
/// reseeds the resumed integrator's force field — without it a resumed
/// excited trajectory silently diverges from the uninterrupted one on
/// the first half-kick. Version 2 added the payload checksum. Older
/// files are rejected.
const VERSION: u32 = 3;

/// FNV-1a/64 over the payload — detects any bit flip in the body, so a
/// corrupted checkpoint is quarantined at load instead of silently
/// seeding a wrong-but-plausible resumed trajectory. Also reused by
/// [`crate::config::RunConfig::deck_hash`] to fingerprint decks for the
/// ledger archive.
pub(crate) fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A complete restart point.
#[derive(Clone, Debug)]
pub struct Checkpoint<T: Real> {
    /// Electronic state.
    pub state: LfdState<T>,
    /// Ionic state.
    pub system: AtomicSystem,
    /// QD steps completed when the checkpoint was taken.
    pub steps_done: u64,
    /// Shadow-channel excitation count (`nexc`) at the boundary — the
    /// value the last ionic step softened its forces with. Seeds
    /// [`dcmesh_qxmd::MdIntegrator::resume`] so the resumed integrator's
    /// cached force field is bit-identical to the one the interrupted
    /// run carried.
    pub nexc: f64,
}

/// Checkpoint decoding error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointError(pub String);

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint: {}", self.0)
    }
}

impl std::error::Error for CheckpointError {}

fn err(msg: impl Into<String>) -> CheckpointError {
    CheckpointError(msg.into())
}

/// Element-width marker stored in the header.
fn width_of<T: Real>() -> u8 {
    core::mem::size_of::<T>() as u8
}

fn put_f64_slice(buf: &mut BytesMut, v: &[f64]) {
    buf.put_u64_le(v.len() as u64);
    for &x in v {
        buf.put_f64_le(x);
    }
}

fn get_f64_vec(buf: &mut Bytes) -> Result<Vec<f64>, CheckpointError> {
    if buf.remaining() < 8 {
        return Err(err("truncated length"));
    }
    let n = usize::try_from(buf.get_u64_le()).map_err(|_| err("length overflow"))?;
    let need = n.checked_mul(8).ok_or_else(|| err("length overflow"))?;
    if buf.remaining() < need {
        return Err(err("truncated f64 array"));
    }
    Ok((0..n).map(|_| buf.get_f64_le()).collect())
}

fn put_scalar_slice<T: Real>(buf: &mut BytesMut, v: &[T]) {
    buf.put_u64_le(v.len() as u64);
    for &x in v {
        // Stored at the state's own width to keep restarts bit-exact.
        if width_of::<T>() == 4 {
            buf.put_f32_le(x.to_f64() as f32);
        } else {
            buf.put_f64_le(x.to_f64());
        }
    }
}

fn get_scalar_vec<T: Real>(buf: &mut Bytes) -> Result<Vec<T>, CheckpointError> {
    if buf.remaining() < 8 {
        return Err(err("truncated length"));
    }
    let n = usize::try_from(buf.get_u64_le()).map_err(|_| err("length overflow"))?;
    let w = width_of::<T>() as usize;
    let need = n.checked_mul(w).ok_or_else(|| err("length overflow"))?;
    if buf.remaining() < need {
        return Err(err("truncated scalar array"));
    }
    Ok((0..n)
        .map(|_| {
            if w == 4 {
                T::from_f64(buf.get_f32_le() as f64)
            } else {
                T::from_f64(buf.get_f64_le())
            }
        })
        .collect())
}

fn put_complex_slice<T: Real>(buf: &mut BytesMut, v: &[Complex<T>]) {
    buf.put_u64_le(v.len() as u64);
    for z in v {
        if width_of::<T>() == 4 {
            buf.put_f32_le(z.re.to_f64() as f32);
            buf.put_f32_le(z.im.to_f64() as f32);
        } else {
            buf.put_f64_le(z.re.to_f64());
            buf.put_f64_le(z.im.to_f64());
        }
    }
}

fn get_complex_vec<T: Real>(buf: &mut Bytes) -> Result<Vec<Complex<T>>, CheckpointError> {
    if buf.remaining() < 8 {
        return Err(err("truncated length"));
    }
    let n = usize::try_from(buf.get_u64_le()).map_err(|_| err("length overflow"))?;
    let w = 2 * width_of::<T>() as usize;
    let need = n.checked_mul(w).ok_or_else(|| err("length overflow"))?;
    if buf.remaining() < need {
        return Err(err("truncated complex array"));
    }
    Ok((0..n)
        .map(|_| {
            if width_of::<T>() == 4 {
                Complex {
                    re: T::from_f64(buf.get_f32_le() as f64),
                    im: T::from_f64(buf.get_f32_le() as f64),
                }
            } else {
                Complex { re: T::from_f64(buf.get_f64_le()), im: T::from_f64(buf.get_f64_le()) }
            }
        })
        .collect())
}

fn species_tag(s: Species) -> u8 {
    match s {
        Species::Pb => 0,
        Species::Ti => 1,
        Species::O => 2,
    }
}

fn species_from_tag(t: u8) -> Result<Species, CheckpointError> {
    match t {
        0 => Ok(Species::Pb),
        1 => Ok(Species::Ti),
        2 => Ok(Species::O),
        other => Err(err(format!("unknown species tag {other}"))),
    }
}

impl<T: Real> Checkpoint<T> {
    /// Serialises to bytes: an 8-byte magic, version, element width and
    /// payload checksum, then the checksummed payload.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u64_le(self.steps_done);
        buf.put_f64_le(self.nexc);

        // Electronic state.
        let st = &self.state;
        put_complex_slice(&mut buf, &st.psi);
        put_complex_slice(&mut buf, &st.psi0);
        put_scalar_slice(&mut buf, &st.occ);
        put_f64_slice(&mut buf, &st.eps);
        put_complex_slice(&mut buf, &st.shadow);
        put_scalar_slice(&mut buf, &st.vloc);
        buf.put_f64_le(st.a_induced);
        buf.put_f64_le(st.a_induced_dot);
        buf.put_f64_le(st.time);
        buf.put_u64_le(st.step);

        // Ionic state.
        let sys = &self.system;
        buf.put_u64_le(sys.species.len() as u64);
        for &s in &sys.species {
            buf.put_u8(species_tag(s));
        }
        put_f64_slice(&mut buf, &sys.positions);
        put_f64_slice(&mut buf, &sys.velocities);
        buf.put_f64_le(sys.box_length);

        let payload = buf.freeze();
        let mut framed = BytesMut::new();
        framed.put_slice(MAGIC);
        framed.put_u32_le(VERSION);
        framed.put_u8(width_of::<T>());
        framed.put_u64_le(fnv1a64(payload.as_ref()));
        framed.put_slice(payload.as_ref());
        framed.freeze()
    }

    /// Deserialises, validating magic, version, element width and the
    /// payload checksum.
    pub fn decode(mut buf: Bytes) -> Result<Checkpoint<T>, CheckpointError> {
        if buf.remaining() < MAGIC.len() + 4 + 1 + 8 + 8 {
            return Err(err("file too short"));
        }
        let mut magic = [0u8; 8];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(err("bad magic (not a DCMESH checkpoint)"));
        }
        let version = buf.get_u32_le();
        if version != VERSION {
            return Err(err(format!("unsupported version {version}")));
        }
        let width = buf.get_u8();
        if width != width_of::<T>() {
            return Err(err(format!(
                "element width mismatch: file has {width}-byte reals, caller expects {}",
                width_of::<T>()
            )));
        }
        let checksum = buf.get_u64_le();
        let actual = fnv1a64(buf.as_ref());
        if checksum != actual {
            return Err(err(format!(
                "payload checksum mismatch (stored {checksum:#018x}, computed {actual:#018x}) — \
                 file is corrupt"
            )));
        }
        let steps_done = buf.get_u64_le();
        if buf.remaining() < 8 {
            return Err(err("truncated excitation count"));
        }
        let nexc = buf.get_f64_le();

        let psi = get_complex_vec::<T>(&mut buf)?;
        let psi0 = get_complex_vec::<T>(&mut buf)?;
        let occ = get_scalar_vec::<T>(&mut buf)?;
        let eps = get_f64_vec(&mut buf)?;
        let shadow = get_complex_vec::<T>(&mut buf)?;
        let vloc = get_scalar_vec::<T>(&mut buf)?;
        if buf.remaining() < 4 * 8 {
            return Err(err("truncated trailer"));
        }
        let a_induced = buf.get_f64_le();
        let a_induced_dot = buf.get_f64_le();
        let time = buf.get_f64_le();
        let step = buf.get_u64_le();

        if buf.remaining() < 8 {
            return Err(err("truncated species count"));
        }
        let n_atoms = usize::try_from(buf.get_u64_le()).map_err(|_| err("length overflow"))?;
        if buf.remaining() < n_atoms {
            return Err(err("truncated species list"));
        }
        let species = (0..n_atoms)
            .map(|_| species_from_tag(buf.get_u8()))
            .collect::<Result<Vec<_>, _>>()?;
        let positions = get_f64_vec(&mut buf)?;
        let velocities = get_f64_vec(&mut buf)?;
        if buf.remaining() < 8 {
            return Err(err("truncated box length"));
        }
        let box_length = buf.get_f64_le();

        if positions.len() != 3 * n_atoms || velocities.len() != 3 * n_atoms {
            return Err(err("ionic array sizes inconsistent with atom count"));
        }

        Ok(Checkpoint {
            state: LfdState {
                psi,
                psi0,
                occ,
                eps,
                shadow,
                vloc,
                a_induced,
                a_induced_dot,
                time,
                step,
            },
            system: AtomicSystem { species, positions, velocities, box_length },
            steps_done,
            nexc,
        })
    }

    /// Validates internal consistency against run parameters.
    pub fn validate(&self, params: &LfdParams) -> Result<(), CheckpointError> {
        let expect = params.mesh.len() * params.n_orb;
        if self.state.psi.len() != expect {
            return Err(err(format!(
                "state size {} does not match deck ({} x {})",
                self.state.psi.len(),
                params.mesh.len(),
                params.n_orb
            )));
        }
        if self.state.occ.len() != params.n_orb || self.state.eps.len() != params.n_orb {
            return Err(err("per-orbital array sizes do not match the deck"));
        }
        if self.state.vloc.len() != params.mesh.len() {
            return Err(err("potential size does not match the mesh"));
        }
        Ok(())
    }

    /// Writes to a file, crash-atomically: the bytes go to a `.tmp`
    /// sibling first, are fsynced, and only then renamed into place. A
    /// process killed mid-write can therefore never leave a torn `.ck`
    /// behind — the resume scanner either sees the complete old file, the
    /// complete new file, or a leftover `.tmp` it ignores — which is what
    /// lets crashed ranks of a sharded run resume from a *shared*
    /// checkpoint directory without tripping the quarantine path.
    pub fn save(&self, path: &std::path::Path) -> Result<(), std::io::Error> {
        use std::io::Write;
        let name = path.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("checkpoint path {} has no file name", path.display()),
            )
        })?;
        let tmp = path.with_file_name(format!("{name}.tmp"));
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(self.encode().as_ref())?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        // Best-effort directory sync so the rename itself survives a
        // power cut; failure here (exotic filesystems) is not fatal.
        if let Some(dir) = path.parent() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Reads from a file.
    pub fn load(path: &std::path::Path) -> Result<Checkpoint<T>, Box<dyn std::error::Error>> {
        let data = std::fs::read(path)?;
        Ok(Checkpoint::decode(Bytes::from(data))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh_lfd::propagator::{qd_step, QdScratch};
    use dcmesh_lfd::state::cosine_potential;
    use dcmesh_lfd::{LaserPulse, Mesh3};
    use dcmesh_qxmd::pto_supercell;

    fn params() -> LfdParams {
        LfdParams {
            mesh: Mesh3::cubic(9, 0.6),
            n_orb: 6,
            n_occ: 3,
            dt: 0.02,
            vnl_strength: 0.2,
            taylor_order: 4,
            laser: LaserPulse { amplitude: 0.3, omega: 0.4, duration: 100.0, phase: 0.0 },
            induced_coupling: 1e-4,
        }
    }

    fn make_checkpoint() -> (LfdParams, Checkpoint<f32>) {
        let p = params();
        let mut state = LfdState::<f32>::initialize(&p, cosine_potential(&p.mesh, 0.2));
        let mut scratch = QdScratch::new(&p);
        for _ in 0..7 {
            qd_step(&p, &mut state, &mut scratch);
        }
        let ck = Checkpoint { state, system: pto_supercell(2), steps_done: 7, nexc: 0.125 };
        (p, ck)
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let (_, ck) = make_checkpoint();
        let bytes = ck.encode();
        let back = Checkpoint::<f32>::decode(bytes).expect("decode");
        assert_eq!(back.steps_done, 7);
        assert_eq!(back.nexc.to_bits(), ck.nexc.to_bits());
        assert_eq!(back.state.step, ck.state.step);
        assert_eq!(back.state.time.to_bits(), ck.state.time.to_bits());
        for (a, b) in back.state.psi.iter().zip(&ck.state.psi) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        assert_eq!(back.system.positions, ck.system.positions);
        assert_eq!(back.system.species, ck.system.species);
    }

    #[test]
    fn restart_continues_bitwise_identically() {
        // 7 + 5 steps straight through vs 7, checkpoint, restore, 5 more.
        let (p, ck) = make_checkpoint();
        let mut straight = ck.state.clone();
        let mut scratch = QdScratch::new(&p);
        let mut straight_obs = Vec::new();
        for _ in 0..5 {
            straight_obs.push(qd_step(&p, &mut straight, &mut scratch));
        }
        let mut restored = Checkpoint::<f32>::decode(ck.encode()).expect("decode").state;
        let mut scratch2 = QdScratch::new(&p);
        for (i, want) in straight_obs.iter().enumerate() {
            let got = qd_step(&p, &mut restored, &mut scratch2);
            assert_eq!(got.ekin.to_bits(), want.ekin.to_bits(), "step {i}");
            assert_eq!(got.nexc.to_bits(), want.nexc.to_bits(), "step {i}");
            assert_eq!(got.javg.to_bits(), want.javg.to_bits(), "step {i}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let (_, ck) = make_checkpoint();
        let mut raw = ck.encode().to_vec();
        raw[0] ^= 0xFF;
        let e = Checkpoint::<f32>::decode(Bytes::from(raw)).unwrap_err();
        assert!(e.0.contains("magic"), "{e}");
    }

    #[test]
    fn payload_bitflip_detected() {
        let (_, ck) = make_checkpoint();
        let header = MAGIC.len() + 4 + 1 + 8;
        let mut raw = ck.encode().to_vec();
        // Flip a single bit deep inside the wave-function payload — a
        // plausible value that only the checksum can catch.
        let idx = header + (raw.len() - header) / 2;
        raw[idx] ^= 0x01;
        let e = Checkpoint::<f32>::decode(Bytes::from(raw)).unwrap_err();
        assert!(e.0.contains("checksum"), "{e}");
        // A flipped checksum field itself is likewise rejected.
        let mut raw2 = ck.encode().to_vec();
        raw2[header - 1] ^= 0x80;
        let e2 = Checkpoint::<f32>::decode(Bytes::from(raw2)).unwrap_err();
        assert!(e2.0.contains("checksum"), "{e2}");
    }

    #[test]
    fn width_mismatch_rejected() {
        let (_, ck) = make_checkpoint();
        let e = Checkpoint::<f64>::decode(ck.encode()).unwrap_err();
        assert!(e.0.contains("width"), "{e}");
    }

    #[test]
    fn truncation_rejected_not_panicking() {
        let (_, ck) = make_checkpoint();
        let raw = ck.encode();
        for cut in [0usize, 5, 13, 64, raw.len() / 2, raw.len() - 1] {
            let sliced = raw.slice(..cut);
            assert!(
                Checkpoint::<f32>::decode(sliced).is_err(),
                "truncation at {cut} must error"
            );
        }
    }

    #[test]
    fn validate_against_deck() {
        let (p, ck) = make_checkpoint();
        ck.validate(&p).expect("consistent");
        let mut wrong = params();
        wrong.n_orb = 5;
        wrong.n_occ = 2;
        assert!(ck.validate(&wrong).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let (_, ck) = make_checkpoint();
        let dir = std::env::temp_dir().join("dcmesh-ck-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("state.ck");
        ck.save(&path).expect("save");
        let back = Checkpoint::<f32>::load(&path).expect("load");
        assert_eq!(back.steps_done, ck.steps_done);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_is_atomic_and_leaves_no_tmp_sibling() {
        let (_, ck) = make_checkpoint();
        let dir = std::env::temp_dir().join(format!("dcmesh-ck-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("dcmesh-7.ck");
        ck.save(&path).expect("save");
        // The staging file must be gone and the final file complete.
        assert!(!dir.join("dcmesh-7.ck.tmp").exists(), "tmp sibling left behind");
        Checkpoint::<f32>::load(&path).expect("renamed file decodes");
        // Overwriting an existing checkpoint goes through the same path.
        ck.save(&path).expect("overwrite");
        assert!(!dir.join("dcmesh-7.ck.tmp").exists());
        // A leftover `.tmp` from a hypothetical mid-write kill is invisible
        // to the resume scanner's `dcmesh-<step>.ck` pattern.
        std::fs::write(dir.join("dcmesh-9.ck.tmp"), b"torn").expect("plant torn tmp");
        let p = params();
        let found = crate::runner::scan_and_load::<f32>(&dir, &p).expect("scan");
        assert!(found.is_some(), "real checkpoint still resumes");
        assert!(dir.join("dcmesh-9.ck.tmp").exists(), "tmp must not be quarantined/consumed");
        std::fs::remove_dir_all(&dir).ok();
    }
}
