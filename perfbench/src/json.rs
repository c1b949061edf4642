//! A small JSON reader (the workspace has no serde) and the server
//! `Stats` snapshot the benchmark takes before and after each phase.
//!
//! Per-layer numbers taken from `Stats` are count and sum deltas of the
//! server's counters and histograms, never bucket quantiles: a delta of
//! `(count, sum)` gives the exact mean over the phase.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .map(|n| n as u64)
    }

    /// The members, if this is an object.
    pub fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(m) => m,
            _ => &[],
        }
    }
}

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing characters at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.b.get(self.i) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    members.push((key, self.value()?));
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.b.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = String::new();
        loop {
            let start = self.i;
            while self.i < self.b.len() && self.b[self.i] != b'"' && self.b[self.i] != b'\\' {
                self.i += 1;
            }
            out.push_str(std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?);
            match self.b.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = *self.b.get(self.i + 1).ok_or("unterminated escape")?;
                    self.i += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.b.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.i += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self.i < self.b.len()
            && matches!(
                self.b[self.i],
                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
            )
        {
            self.i += 1;
        }
        let s = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {s:?} at byte {start}"))
    }
}

/// The counters and histogram `(count, sum)` pairs of one `Stats`
/// response, plus the cluster pool's liveness.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// `metrics.counters` of the stats document.
    pub counters: BTreeMap<String, u64>,
    /// `metrics.histograms`, reduced to `(count, sum)`.
    pub histograms: BTreeMap<String, (u64, u64)>,
    /// Cluster workers reporting `up`, `None` for a single-process server.
    pub workers_up: Option<u64>,
}

impl StatsSnapshot {
    /// Read a `Stats` response document.
    pub fn from_json(text: &str) -> Result<StatsSnapshot, String> {
        let doc = parse(text)?;
        let metrics = doc.get("metrics").ok_or("stats document has no metrics")?;
        let mut snap = StatsSnapshot::default();
        for (name, v) in metrics.get("counters").map(Json::members).unwrap_or(&[]) {
            let n = v
                .as_u64()
                .ok_or_else(|| format!("counter {name} is not a count"))?;
            snap.counters.insert(name.clone(), n);
        }
        for (name, h) in metrics.get("histograms").map(Json::members).unwrap_or(&[]) {
            let field = |f: &str| {
                h.get(f)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("histogram {name} lacks {f}"))
            };
            snap.histograms
                .insert(name.clone(), (field("count")?, field("sum")?));
        }
        if let Some(Json::Arr(workers)) = doc.get("cluster").and_then(|c| c.get("workers")) {
            let up = workers
                .iter()
                .filter(|w| w.get("up") == Some(&Json::Bool(true)))
                .count();
            snap.workers_up = Some(up as u64);
        }
        Ok(snap)
    }

    /// What happened between `before` and `self`.
    pub fn since(&self, before: &StatsSnapshot) -> StatsDelta {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| {
                let b = before.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(b))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, &(c, s))| {
                let (bc, bs) = before.histograms.get(k).copied().unwrap_or((0, 0));
                (k.clone(), (c.saturating_sub(bc), s.saturating_sub(bs)))
            })
            .collect();
        StatsDelta {
            counters,
            histograms,
        }
    }
}

/// Counter and histogram deltas over one phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsDelta {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, (u64, u64)>,
}

impl StatsDelta {
    /// Fold another phase's deltas into this one.
    pub fn add(&mut self, other: &StatsDelta) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, (c, s)) in &other.histograms {
            let e = self.histograms.entry(k.clone()).or_insert((0, 0));
            e.0 += c;
            e.1 += s;
        }
    }

    /// Increase of counter `name` (0 when the server has no such counter).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// `(count, sum)` recorded into histogram `name` during the phase.
    pub fn histogram(&self, name: &str) -> (u64, u64) {
        self.histograms.get(name).copied().unwrap_or((0, 0))
    }

    /// Mean of the samples histogram `name` recorded during the phase
    /// (0 when it recorded none).
    pub fn mean(&self, name: &str) -> f64 {
        let (count, sum) = self.histogram(name);
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INPROC_BEFORE: &str = include_str!("../testdata/stats_inproc_before.json");
    const INPROC_AFTER: &str = include_str!("../testdata/stats_inproc_after.json");
    const CLUSTER: &str = include_str!("../testdata/stats_cluster.json");

    #[test]
    fn parses_values() {
        let v = parse(r#" {"a": [1, -2.5e3, true, null], "b": {"c": "x\"yA"}} "#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Bool(true),
                Json::Null
            ]))
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")),
            Some(&Json::Str("x\"yA".into()))
        );
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("[1,").is_err());
        assert!(parse("").is_err());
        assert_eq!(
            parse(&format!("\"{}\"", romp_trace::json_escape("q\"\\\n"))).unwrap(),
            Json::Str("q\"\\\n".into())
        );
    }

    #[test]
    fn snapshot_reads_a_captured_stats_document() {
        let snap = StatsSnapshot::from_json(INPROC_AFTER).unwrap();
        assert!(snap.counters.contains_key("serve.jobs.completed"));
        assert!(snap.histograms.contains_key("serve.latency.total_ns"));
        assert_eq!(snap.workers_up, None);
        let cluster = StatsSnapshot::from_json(CLUSTER).unwrap();
        assert_eq!(cluster.workers_up, Some(1));
        assert!(cluster.counters.contains_key("cluster.dispatched"));
    }

    fn sum_of(d: &StatsDelta) -> u64 {
        d.histogram("serve.latency.total_ns").1
    }

    #[test]
    fn delta_between_captured_snapshots() {
        let before = StatsSnapshot::from_json(INPROC_BEFORE).unwrap();
        let after = StatsSnapshot::from_json(INPROC_AFTER).unwrap();
        let d = after.since(&before);
        // The captured pair brackets a phase of exactly 200 EPCC jobs.
        assert_eq!(d.counter("serve.jobs.completed"), 200);
        assert_eq!(d.counter("serve.submit.accepted"), 200);
        assert_eq!(d.counter("serve.req.await"), 200);
        let (count, sum) = d.histogram("serve.latency.total_ns");
        assert_eq!(count, 200);
        let (bc, bs) = before.histograms["serve.latency.total_ns"];
        let (ac, as_) = after.histograms["serve.latency.total_ns"];
        assert_eq!((count, sum), (ac - bc, as_ - bs));
        assert!((d.mean("serve.latency.total_ns") - sum as f64 / count as f64).abs() < 1e-9);
        // Instruments the server does not have read as zero.
        assert_eq!(d.counter("no.such.counter"), 0);
        assert_eq!(d.mean("no.such.histogram"), 0.0);
        // Deltas of several phases add up.
        let mut sum = StatsDelta::default();
        sum.add(&d);
        sum.add(&d);
        assert_eq!(sum.counter("serve.jobs.completed"), 400);
        assert_eq!(
            sum.histogram("serve.latency.total_ns"),
            (2 * count, 2 * sum_of(&d))
        );
        assert!(
            (sum.mean("serve.latency.total_ns") - d.mean("serve.latency.total_ns")).abs() < 1e-9
        );
        // A snapshot against itself is all zeros.
        let zero = after.since(&after);
        assert_eq!(zero.counter("serve.jobs.completed"), 0);
        assert_eq!(zero.histogram("serve.latency.exec_ns"), (0, 0));
    }
}
