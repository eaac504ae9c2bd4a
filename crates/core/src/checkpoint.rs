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
//!
//! The format is version 4: a 21-byte header (magic, version, element
//! width, payload checksum) and the payload, encoded once into one
//! exactly-sized buffer and checksummed by words (`checksum64`). Files
//! of any other version — version 3 included, whose payload is the same
//! but whose checksum is not — are refused with "unsupported version";
//! there is no compatibility reader.

use bytes::{Buf, Bytes};
use dcmesh_lfd::{LfdParams, LfdState};
use dcmesh_numerics::{Complex, Real};
use dcmesh_qxmd::{AtomicSystem, Species};
use std::fmt;

/// File magic: "DCMESHCK".
const MAGIC: &[u8; 8] = b"DCMESHCK";
/// Format version. Version 4 changed the payload checksum from
/// byte-serial FNV-1a to the word-wise [`checksum64`] (the payload layout
/// is version 3's). Version 3 added the boundary excitation count, which
/// reseeds the resumed integrator's force field — without it a resumed
/// excited trajectory silently diverges from the uninterrupted one on
/// the first half-kick. Version 2 added the payload checksum. Older
/// files are rejected ("unsupported version"): there is no compatibility
/// reader, a run restarts from a checkpoint its own build wrote.
const VERSION: u32 = 4;
/// Magic, version, element width, payload checksum.
const HEADER_LEN: usize = MAGIC.len() + 4 + 1 + 8;

/// FNV-1a/64, byte by byte. Fingerprints decks for the ledger archive
/// ([`crate::config::RunConfig::deck_hash`]); checkpoints used it through
/// version 3 and moved off it because one dependent multiply per byte is
/// 2.4 ms of a 1.8 MB payload.
pub(crate) fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The payload checksum: an FNV-style fold over little-endian 64-bit
/// words, four independent lanes wide so the multiplies pipeline (a
/// 32-byte block per step), the byte tail zero-padded into one last word
/// and the length folded in so that padding is not ambiguous.
///
/// What it guarantees is what the quarantine path needs: every step —
/// `h ← rotl((h ⊕ w)·P, 29)`, `P` odd — is a bijection of the running
/// hash for a given word and of the word for a given hash, so two
/// payloads of equal length that differ in exactly one word (any single
/// bit flip, any burst inside one aligned 8 bytes) never collide, nor do
/// two whose zero-padded words agree but whose lengths differ. The
/// rotation carries high bits back down, which plain FNV's multiply never
/// does: flips of the top bit of two words of a lane would otherwise
/// cancel. Beyond that it is a 64-bit hash, not a MAC: it detects
/// accidents, not adversaries.
fn checksum64(data: &[u8]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(PRIME).rotate_left(29);
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
    let mut lanes = [
        0xcbf2_9ce4_8422_2325u64,
        0x9e37_79b9_7f4a_7c15,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
    ];
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, word(w));
        }
    }
    // The tail: whole words into successive lanes, then the last partial
    // word zero-padded.
    let mut words = blocks.remainder().chunks_exact(8);
    let mut lane = 0;
    for w in &mut words {
        lanes[lane] = step(lanes[lane], word(w));
        lane += 1;
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        lanes[lane] = step(lanes[lane], u64::from_le_bytes(last));
    }
    lanes.into_iter().fold(data.len() as u64, step)
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

/// Appends `v`'s length and its elements, each through `bytes` — a
/// `to_le_bytes` of the element at its stored width. Written over
/// `chunks_exact_mut` of a pre-sized window so the loop is a bulk copy
/// (a `memcpy` on little-endian hosts), not a push per element.
fn put_slice<X: Copy, const W: usize>(buf: &mut Vec<u8>, v: &[X], bytes: impl Fn(X) -> [u8; W]) {
    buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
    let start = buf.len();
    buf.resize(start + v.len() * W, 0);
    for (dst, &x) in buf[start..].chunks_exact_mut(W).zip(v) {
        dst.copy_from_slice(&bytes(x));
    }
}

fn put_f64_slice(buf: &mut Vec<u8>, v: &[f64]) {
    put_slice(buf, v, f64::to_le_bytes);
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

/// Stored at the state's own width to keep restarts bit-exact.
fn put_scalar_slice<T: Real>(buf: &mut Vec<u8>, v: &[T]) {
    if width_of::<T>() == 4 {
        put_slice(buf, v, |x| (x.to_f64() as f32).to_le_bytes());
    } else {
        put_slice(buf, v, |x| x.to_f64().to_le_bytes());
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

/// Real part then imaginary part, each as [`put_scalar_slice`] stores it.
fn put_complex_slice<T: Real>(buf: &mut Vec<u8>, v: &[Complex<T>]) {
    fn pair<const H: usize, const W: usize>(re: [u8; H], im: [u8; H]) -> [u8; W] {
        let mut out = [0u8; W];
        out[..H].copy_from_slice(&re);
        out[H..].copy_from_slice(&im);
        out
    }
    if width_of::<T>() == 4 {
        let le = |x: T| (x.to_f64() as f32).to_le_bytes();
        put_slice(buf, v, |z| pair::<4, 8>(le(z.re), le(z.im)));
    } else {
        let le = |x: T| x.to_f64().to_le_bytes();
        put_slice(buf, v, |z| pair::<8, 16>(le(z.re), le(z.im)));
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
    /// Bytes [`Checkpoint::encode`] produces: the header plus every array
    /// at its stored width behind its length word.
    fn encoded_len(&self) -> usize {
        let (st, sys) = (&self.state, &self.system);
        let w = width_of::<T>() as usize;
        let arrays = 2 * w * (st.psi.len() + st.psi0.len() + st.shadow.len())
            + w * (st.occ.len() + st.vloc.len())
            + 8 * (st.eps.len() + sys.positions.len() + sys.velocities.len())
            + sys.species.len();
        // Nine length words and seven scalars.
        HEADER_LEN + arrays + 8 * (9 + 7)
    }

    /// Serialises to bytes: an 8-byte magic, version, element width and
    /// payload checksum, then the checksummed payload — written once,
    /// into one buffer reserved at its exact size, the checksum patched
    /// into the header afterwards.
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::with_capacity(self.encoded_len());
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.push(width_of::<T>());
        buf.extend_from_slice(&[0; 8]);

        buf.extend_from_slice(&self.steps_done.to_le_bytes());
        buf.extend_from_slice(&self.nexc.to_le_bytes());

        // Electronic state.
        let st = &self.state;
        put_complex_slice(&mut buf, &st.psi);
        put_complex_slice(&mut buf, &st.psi0);
        put_scalar_slice(&mut buf, &st.occ);
        put_f64_slice(&mut buf, &st.eps);
        put_complex_slice(&mut buf, &st.shadow);
        put_scalar_slice(&mut buf, &st.vloc);
        for x in [st.a_induced, st.a_induced_dot, st.time] {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        buf.extend_from_slice(&st.step.to_le_bytes());

        // Ionic state.
        let sys = &self.system;
        put_slice(&mut buf, &sys.species, |s| [species_tag(s)]);
        put_f64_slice(&mut buf, &sys.positions);
        put_f64_slice(&mut buf, &sys.velocities);
        buf.extend_from_slice(&sys.box_length.to_le_bytes());

        debug_assert_eq!(buf.len(), self.encoded_len(), "the one buffer was sized exactly");
        let checksum = checksum64(&buf[HEADER_LEN..]);
        buf[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
        Bytes::from(buf)
    }

    /// Deserialises, validating magic, version, element width and the
    /// payload checksum.
    pub fn decode(mut buf: Bytes) -> Result<Checkpoint<T>, CheckpointError> {
        if buf.remaining() < HEADER_LEN + 8 {
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
        let actual = checksum64(buf.as_ref());
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
        let mut raw = ck.encode().to_vec();
        // Flip a single bit deep inside the wave-function payload — a
        // plausible value that only the checksum can catch.
        let idx = HEADER_LEN + (raw.len() - HEADER_LEN) / 2;
        raw[idx] ^= 0x01;
        let e = Checkpoint::<f32>::decode(Bytes::from(raw)).unwrap_err();
        assert!(e.0.contains("checksum"), "{e}");
        // A flipped checksum field itself is likewise rejected.
        let mut raw2 = ck.encode().to_vec();
        raw2[HEADER_LEN - 1] ^= 0x80;
        let e2 = Checkpoint::<f32>::decode(Bytes::from(raw2)).unwrap_err();
        assert!(e2.0.contains("checksum"), "{e2}");
    }

    /// A checkpoint of a few hundred bytes, `atoms` ions: small enough to
    /// corrupt exhaustively. `decode` checks framing, not physics, so the
    /// arrays need only be distinguishable.
    fn small_checkpoint(atoms: usize) -> Checkpoint<f32> {
        let ramp = |n: usize, scale: f32| -> Vec<f32> { (0..n).map(|i| scale * (i as f32 + 0.5)).collect() };
        let cramp = |n: usize, scale: f32| -> Vec<Complex<f32>> {
            ramp(n, scale).into_iter().map(|x| Complex { re: x, im: -0.5 * x }).collect()
        };
        Checkpoint {
            state: LfdState {
                psi: cramp(12, 0.25),
                psi0: cramp(12, 0.125),
                occ: ramp(3, 1.0),
                eps: vec![-0.5, 0.25, 1.5],
                shadow: cramp(9, 2.0),
                vloc: ramp(4, -0.75),
                a_induced: 1e-3,
                a_induced_dot: -2e-3,
                time: 0.14,
                step: 7,
            },
            system: AtomicSystem {
                species: (0..atoms).map(|i| [Species::Pb, Species::Ti, Species::O][i % 3]).collect(),
                positions: (0..3 * atoms).map(|i| 0.1 * i as f64).collect(),
                velocities: (0..3 * atoms).map(|i| -0.01 * i as f64).collect(),
                box_length: 7.5,
            },
            steps_done: 7,
            nexc: 0.125,
        }
    }

    #[test]
    fn every_single_bit_flip_of_header_or_payload_is_refused() {
        let raw = small_checkpoint(2).encode().to_vec();
        assert!(raw.len() > HEADER_LEN + 256, "payload spans several 32-byte blocks and a tail");
        for bit in 0..raw.len() * 8 {
            let mut flipped = raw.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let refused = Checkpoint::<f32>::decode(Bytes::from(flipped));
            assert!(refused.is_err(), "flip of bit {} of byte {} decoded", bit % 8, bit / 8);
        }
    }

    #[test]
    fn payloads_of_every_length_mod_32_round_trip() {
        // One more ion is 49 more payload bytes, and 49 is coprime to 32:
        // 32 consecutive ion counts reach every tail length the checksum
        // handles (whole 32-byte blocks, 1–3 whole words, a partial word).
        let mut tails = std::collections::BTreeSet::new();
        for atoms in 0..32 {
            let ck = small_checkpoint(atoms);
            let bytes = ck.encode();
            tails.insert((bytes.len() - HEADER_LEN) % 32);
            let back = Checkpoint::<f32>::decode(bytes.clone()).expect("decode");
            assert_eq!(back.encode().to_vec(), bytes.to_vec(), "{atoms} ions");
            assert_eq!(back.system.positions, ck.system.positions);
        }
        assert_eq!(tails.len(), 32);
    }

    #[test]
    fn checksum_separates_lengths_and_zero_tails() {
        // Zero-padding the tail word must not make `x` and `x‖0` collide,
        // and no two prefixes of one buffer may share a checksum.
        let data: Vec<u8> = (0..100u32).map(|i| (i * 37 % 251) as u8).collect();
        let mut seen = std::collections::BTreeSet::new();
        for len in 0..=data.len() {
            assert!(seen.insert(checksum64(&data[..len])), "prefix {len} collides");
            let mut padded = data[..len].to_vec();
            padded.push(0);
            assert_ne!(checksum64(&padded), checksum64(&data[..len]), "zero byte after {len}");
        }
    }

    #[test]
    fn version_3_files_are_rejected_by_version() {
        // Exactly what the previous build wrote: this payload under
        // version 3 and its byte-serial FNV-1a.
        let mut raw = small_checkpoint(2).encode().to_vec();
        raw[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&3u32.to_le_bytes());
        let fnv = fnv1a64(&raw[HEADER_LEN..]);
        raw[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&fnv.to_le_bytes());
        let e = Checkpoint::<f32>::decode(Bytes::from(raw)).unwrap_err();
        assert_eq!(e.0, "unsupported version 3");
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
