//! The entry codec shared by every on-disk segment: store entries as
//! hand-rolled, checksummed JSON, plus the atomic, synced file write
//! segments are published with.
//!
//! Every entry carries a checksum over its canonical payload; an entry
//! whose checksum does not match (tampered, truncated, or written by a
//! different format) is *ignored, never trusted* — corrupted input
//! degrades to a cold cache, it cannot inject wrong verdicts. Encoding is
//! deterministic, so encode → decode → encode round-trips bit-identically.
//!
//! The optional `"abstractions"` certificate field, which records
//! refinement substitutions, is only emitted when non-empty, so a
//! substitution-free certificate's rendering and checksum do not depend
//! on it.

use crate::entry::{Entry, StoredCertificate, StoredStep, StoredSubstitution};
use crate::hash::hash_bytes_seeded;
use crate::json::Json;
use crate::key::ObligationKey;
use cmc_kripke::{Alphabet, State, System};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Checksum domain seed ("cmc-sum1").
const SEED_CHECKSUM: u64 = 0x636D_632D_7375_6D31;

/// Write the file at `path` atomically and durably: `write` fills a
/// temporary sibling through a buffer, which is flushed and synced to disk
/// before it is renamed into place, and the directory is synced after the
/// rename. Readers see either the old file or the new one, and once this
/// returns `Ok` the new file survives a crash under its name. On any error
/// the temporary file is removed.
pub(crate) fn write_atomic(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "store".to_string());
    let tmp = path.with_file_name(format!(".tmp-{}-{file_name}", std::process::id()));
    let publish = || {
        let mut out = BufWriter::new(File::create(&tmp)?);
        write(&mut out)?;
        out.flush()?;
        out.get_ref().sync_all()?;
        std::fs::rename(&tmp, path)?;
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
    };
    publish().inspect_err(|_| {
        std::fs::remove_file(&tmp).ok();
    })
}

/// Canonical checksum payload: key, verdict, and the compact certificate
/// rendering, with an unambiguous separator.
fn checksum(key: ObligationKey, verdict: bool, certificate: &Json) -> String {
    let payload = format!(
        "{}\u{1F}{}\u{1F}{}",
        key.to_hex(),
        verdict,
        certificate.to_compact()
    );
    format!(
        "{:016x}",
        hash_bytes_seeded(SEED_CHECKSUM, payload.as_bytes())
    )
}

pub(crate) fn entry_to_json(key: ObligationKey, entry: &Entry) -> Json {
    let certificate = match &entry.certificate {
        Some(cert) => cert_to_json(cert),
        None => Json::Null,
    };
    let sum = checksum(key, entry.verdict, &certificate);
    Json::Obj(vec![
        ("key".to_string(), Json::Str(key.to_hex())),
        ("verdict".to_string(), Json::Bool(entry.verdict)),
        ("certificate".to_string(), certificate),
        ("checksum".to_string(), Json::Str(sum)),
    ])
}

pub(crate) fn entry_from_json(item: &Json) -> Option<(ObligationKey, Entry)> {
    let key = ObligationKey::from_hex(item.get("key")?.as_str()?)?;
    let verdict = item.get("verdict")?.as_bool()?;
    let certificate_json = item.get("certificate")?;
    let sum = item.get("checksum")?.as_str()?;
    if sum != checksum(key, verdict, certificate_json) {
        return None;
    }
    let certificate = match certificate_json {
        Json::Null => None,
        cert => Some(cert_from_json(cert)?),
    };
    Some((
        key,
        Entry {
            verdict,
            certificate,
        },
    ))
}

fn cert_to_json(cert: &StoredCertificate) -> Json {
    let steps: Vec<Json> = cert
        .steps
        .iter()
        .map(|step| {
            Json::Obj(vec![
                (
                    "description".to_string(),
                    Json::Str(step.description.clone()),
                ),
                ("ok".to_string(), Json::Bool(step.ok)),
                ("compositional".to_string(), Json::Bool(step.compositional)),
                (
                    "backend".to_string(),
                    match &step.backend {
                        Some(b) => Json::Str(b.clone()),
                        None => Json::Null,
                    },
                ),
            ])
        })
        .collect();
    let mut fields = vec![
        ("goal".to_string(), Json::Str(cert.goal.clone())),
        ("valid".to_string(), Json::Bool(cert.valid)),
        ("steps".to_string(), Json::Arr(steps)),
    ];
    // Only emitted when present, so substitution-free certificates render
    // (and checksum) without the field.
    if !cert.abstractions.is_empty() {
        fields.push((
            "abstractions".to_string(),
            Json::Arr(cert.abstractions.iter().map(substitution_to_json).collect()),
        ));
    }
    Json::Obj(fields)
}

fn cert_from_json(json: &Json) -> Option<StoredCertificate> {
    let goal = json.get("goal")?.as_str()?.to_string();
    let valid = json.get("valid")?.as_bool()?;
    let mut steps = Vec::new();
    for step in json.get("steps")?.as_arr()? {
        steps.push(StoredStep {
            description: step.get("description")?.as_str()?.to_string(),
            ok: step.get("ok")?.as_bool()?,
            compositional: step.get("compositional")?.as_bool()?,
            backend: step
                .get("backend")
                .and_then(Json::as_str)
                .map(str::to_string),
        });
    }
    let mut abstractions = Vec::new();
    if let Some(subs) = json.get("abstractions").and_then(Json::as_arr) {
        for sub in subs {
            abstractions.push(substitution_from_json(sub)?);
        }
    }
    Some(StoredCertificate {
        goal,
        valid,
        steps,
        abstractions,
    })
}

/// Faithful JSON form of a system: proposition names in alphabet order
/// and the proper transitions as `"s>t"` hex pairs over that bit order.
/// Deliberately *not* canonicalised — a loaded system must compare equal
/// to the saved one (keys canonicalise separately). States are hex
/// *strings*, never numbers: JSON numbers are `f64` and states are `u128`.
fn system_to_json(system: &System) -> Json {
    Json::Obj(vec![
        (
            "props".to_string(),
            Json::Arr(
                system
                    .alphabet()
                    .names()
                    .iter()
                    .map(|n| Json::Str(n.clone()))
                    .collect(),
            ),
        ),
        (
            "trans".to_string(),
            Json::Arr(
                system
                    .proper_transitions()
                    .map(|(s, t)| Json::Str(format!("{:x}>{:x}", s.0, t.0)))
                    .collect(),
            ),
        ),
    ])
}

fn system_from_json(json: &Json) -> Option<System> {
    let mut names = Vec::new();
    for p in json.get("props")?.as_arr()? {
        names.push(p.as_str()?.to_string());
    }
    let mut system = System::new(Alphabet::new(names));
    for pair in json.get("trans")?.as_arr()? {
        let text = pair.as_str()?;
        let (s, t) = text.split_once('>')?;
        let s = u128::from_str_radix(s, 16).ok()?;
        let t = u128::from_str_radix(t, 16).ok()?;
        let width = system.alphabet().len();
        let mask = if width >= 128 {
            u128::MAX
        } else {
            (1u128 << width) - 1
        };
        if s & !mask != 0 || t & !mask != 0 {
            return None;
        }
        if s != t {
            system.add_transition(State(s), State(t));
        }
    }
    Some(system)
}

fn substitution_to_json(sub: &StoredSubstitution) -> Json {
    Json::Obj(vec![
        ("component".to_string(), Json::Str(sub.component.clone())),
        (
            "abstraction_key".to_string(),
            Json::Str(sub.abstraction_key.clone()),
        ),
        ("concrete".to_string(), system_to_json(&sub.concrete)),
        ("abstraction".to_string(), system_to_json(&sub.abstraction)),
        (
            "rest".to_string(),
            Json::Arr(sub.rest.iter().map(system_to_json).collect()),
        ),
        ("init".to_string(), Json::Str(sub.init.clone())),
        (
            "fairness".to_string(),
            Json::Arr(sub.fairness.iter().map(|g| Json::Str(g.clone())).collect()),
        ),
        ("formula".to_string(), Json::Str(sub.formula.clone())),
    ])
}

fn substitution_from_json(json: &Json) -> Option<StoredSubstitution> {
    let mut rest = Vec::new();
    for sys in json.get("rest")?.as_arr()? {
        rest.push(system_from_json(sys)?);
    }
    let mut fairness = Vec::new();
    for g in json.get("fairness")?.as_arr()? {
        fairness.push(g.as_str()?.to_string());
    }
    Some(StoredSubstitution {
        component: json.get("component")?.as_str()?.to_string(),
        abstraction_key: json.get("abstraction_key")?.as_str()?.to_string(),
        concrete: system_from_json(json.get("concrete")?)?,
        abstraction: system_from_json(json.get("abstraction")?)?,
        rest,
        init: json.get("init")?.as_str()?.to_string(),
        fairness,
        formula: json.get("formula")?.as_str()?.to_string(),
    })
}
