//! The workloads and metrics the benchmark reports, read from
//! `BENCHMARK.json` at the repository root: the file is compiled in and
//! parsed once, so it is the only list of names, units and bounds.

use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::sync::LazyLock;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`, unique across both lists.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Share of the parent's median by which the metric may worsen before
    /// a change is rejected (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug)]
pub struct Catalog {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// What a user of the system sees; printed by every untraced run.
    pub end_to_end: Vec<MetricDef>,
    /// Single-layer metrics; printed by every traced run. A layer a
    /// workload does not exercise reports 0.
    pub per_layer: Vec<MetricDef>,
}

/// Wraps a [`Value`] tree for the vendored `serde_json`, which renders and
/// parses through the trait pair.
struct Json(Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Self(v.clone()))
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.as_map()
        .and_then(|m| serde::field(m, key))
        .ok_or_else(|| format!("missing {key:?}"))
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("{key:?} is not a string"))
}

impl Catalog {
    /// Parses the text of a `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed entry.
    pub fn parse(json: &str) -> Result<Self, String> {
        let Json(root) = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let list = |key: &str| {
            field(&root, key)?
                .as_seq()
                .ok_or_else(|| format!("{key:?} is not a list"))
        };
        let metrics = |key: &str, bounded: bool| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let name = text(m, "name")?;
                    let better = text(m, "better")?;
                    if better != "lower" && better != "higher" {
                        return Err(format!("{name}: better is {better:?}"));
                    }
                    let bound = if bounded {
                        let b = field(m, "bound")?.as_f64();
                        Some(b.ok_or_else(|| format!("{name}: bound is not a number"))?)
                    } else {
                        None
                    };
                    Ok(MetricDef {
                        unit: text(m, "unit")?,
                        name,
                        bound,
                    })
                })
                .collect()
        };
        Ok(Self {
            workloads: list("workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }
}

/// The benchmark's own `BENCHMARK.json`.
pub static CATALOG: LazyLock<Catalog> = LazyLock::new(|| {
    Catalog::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well-formed")
});

/// Looks a metric up in either list.
#[must_use]
pub fn find(name: &str) -> Option<&'static MetricDef> {
    CATALOG
        .end_to_end
        .iter()
        .chain(&CATALOG.per_layer)
        .find(|m| m.name == name)
}

/// Metric values a run measured, keyed by catalog name.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records a value.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the catalog (a typo in the
    /// benchmark) or a non-finite value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(find(name).is_some(), "metric {name} is not in the catalog");
        assert!(value.is_finite(), "metric {name} measured {value}");
        self.values.insert(name, value);
    }

    /// A recorded value.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The values of `list`, in list order; a metric this run did not
    /// measure reads 0 (its layer was not exercised).
    #[must_use]
    pub fn select<'a>(&self, list: &'a [MetricDef]) -> Vec<(&'a MetricDef, f64)> {
        list.iter()
            .map(|m| (m, self.get(&m.name).unwrap_or(0.0)))
            .collect()
    }
}

/// Renders the one-line result the benchmark prints last.
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&MetricDef, f64)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|(m, v)| {
            (
                m.name.clone(),
                Value::Map(vec![
                    ("value".into(), Value::Float(*v)),
                    ("unit".into(), Value::Str(m.unit.clone())),
                ]),
            )
        })
        .collect();
    let root = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&Json(root)).expect("a value tree always renders")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &CATALOG.workloads {
            assert!(valid_name(w), "bad workload name {w}");
            assert!(seen.insert(w.as_str()), "duplicate name {w}");
        }
        for m in CATALOG.end_to_end.iter().chain(&CATALOG.per_layer) {
            assert!(valid_name(&m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name.as_str()), "duplicate name {}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                m.unit
            );
        }
        for m in &CATALOG.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        let setup = find("setup_s").expect("setup_s");
        let widest = CATALOG
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    }

    #[test]
    fn malformed_entries_are_refused() {
        let ok = r#"{"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "a", "unit": "s", "better": "lower", "bound": 0.1}],
            "per_layer": [{"name": "b", "unit": "us", "better": "higher"}]}"#;
        let c = Catalog::parse(ok).expect("parses");
        assert_eq!(c.workloads, ["w"]);
        assert_eq!(c.end_to_end[0].bound, Some(0.1));
        assert_eq!(c.per_layer[0].bound, None);
        for bad in [
            ok.replace("\"lower\"", "\"less\""),
            ok.replace(", \"bound\": 0.1", ""),
            ok.replace("\"unit\": \"us\", ", ""),
        ] {
            assert!(Catalog::parse(&bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        m.set("throughput_sps", 1234.5);
        let line = result_line(true, 10, 0, &m.select(&CATALOG.end_to_end));
        let Json(root) = serde_json::from_str(&line).expect("parses");
        let keys: Vec<&str> = root
            .as_map()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = field(&root, "metrics").expect("metrics");
        for def in &CATALOG.end_to_end {
            let entry = field(metrics, &def.name).expect("listed");
            assert_eq!(text(entry, "unit").as_deref(), Ok(def.unit.as_str()));
            assert!(field(entry, "value").expect("value").as_f64().is_some());
        }
        let tp = field(metrics, "throughput_sps").and_then(|e| field(e, "value"));
        assert_eq!(tp.expect("value").as_f64(), Some(1234.5));
    }
}
