//! Pinned outputs (`pins.json`, compiled in).
//!
//! A pin is the deterministic aggregate (rounds, messages, bits) and
//! the FNV-1a digest of the `--deterministic` journal bytes; for
//! `gamma_scale` also of the streamed telemetry archive; for
//! `service_loop` the same over the direct runs of its job pool. No
//! workload's pinned inputs depend on `--seed`, so pins hold at every
//! seed. Regenerate with `perfbench pins` when a change is meant to
//! alter outputs.

use qdc_harness::Json;

/// One workload's pinned outputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pin {
    pub rounds: u64,
    pub messages: u64,
    pub bits: u64,
    pub digest: String,
    pub archive_digest: Option<String>,
}

impl Pin {
    /// The pin as a JSON object, in `pins.json` form.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("rounds".to_string(), Json::Num(self.rounds)),
            ("messages".to_string(), Json::Num(self.messages)),
            ("bits".to_string(), Json::Num(self.bits)),
            ("digest".to_string(), Json::Str(self.digest.clone())),
        ];
        if let Some(a) = &self.archive_digest {
            fields.push(("archive_digest".to_string(), Json::Str(a.clone())));
        }
        Json::Obj(fields)
    }

    fn from_json(doc: &Json) -> Option<Pin> {
        let num = |k: &str| doc.get(k).and_then(Json::as_u64);
        let text = |k: &str| match doc.get(k) {
            Some(Json::Str(s)) => Some(s.clone()),
            _ => None,
        };
        Some(Pin {
            rounds: num("rounds")?,
            messages: num("messages")?,
            bits: num("bits")?,
            digest: text("digest")?,
            archive_digest: text("archive_digest"),
        })
    }
}

const PINS: &str = include_str!("../pins.json");

/// The pin of `workload`, if `pins.json` has one.
pub fn get(workload: &str) -> Option<Pin> {
    let doc = qdc_harness::json::parse(PINS.trim()).expect("pins.json is valid JSON");
    doc.get(workload).and_then(Pin::from_json)
}
