//! The `ToolSpec` value type and its compact textual grammar.
//!
//! A spec names one complete tool stack — scheduler, noise heuristic,
//! noise placement, detector/coverage sinks, spurious-wakeup injection —
//! as a single line of text:
//!
//! ```text
//! pct:3:150+noise=mixed:0.2:20+race=lockset
//! sticky:0.9+noise=sleep:0.3:20+name=sleep-0.3
//! ```
//!
//! Grammar (first component is the scheduler; clauses follow in any order,
//! except `name=`, which — because its value is taken verbatim to the end
//! of the string — must come last):
//!
//! ```text
//! spec      := component clause*
//! clause    := '+' key '=' value
//! key       := 'noise' | 'place' | 'race' | 'deadlock' | 'cov'
//!            | 'spurious' | 'backend' | 'name'
//! value     := component                    (noise/place/race/deadlock/cov)
//!            | number                       (spurious)
//!            | 'model' | 'native'           (backend)
//!            | <verbatim to end of string>  (name)
//! component := ident (':' number)*
//! ```
//!
//! Parsing validates everything against the [registry](crate::registry):
//! unknown components, out-of-range parameters and excess parameters are
//! all errors that point at the offending column. [`ToolSpec::canonical`]
//! pretty-prints a spec so that `parse(canonical(parse(s))) == parse(s)`
//! for every parseable `s` (property-tested), and the canonical form is
//! what run logs and annotated traces carry for provenance.

use mtt_json::{FromJson, Json, JsonError, ToJson};
use mtt_runtime::RuntimeBackend;
use std::fmt;

/// One named, parameterized component reference, e.g. `sleep:0.3:20`.
#[derive(Clone, Debug, PartialEq)]
pub struct ComponentSpec {
    /// Registry id.
    pub id: String,
    /// Positional parameters as written; missing ones take registry
    /// defaults at resolution time.
    pub params: Vec<f64>,
}

impl ComponentSpec {
    /// A bare component with no parameters.
    pub fn bare(id: impl Into<String>) -> Self {
        ComponentSpec {
            id: id.into(),
            params: Vec::new(),
        }
    }
}

impl fmt::Display for ComponentSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id)?;
        for p in &self.params {
            write!(f, ":{p}")?;
        }
        Ok(())
    }
}

/// The kind of event-sink component a detector clause attaches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkKind {
    /// `race=` — data-race detectors.
    Race,
    /// `deadlock=` — deadlock detectors.
    Deadlock,
    /// `cov=` — coverage models.
    Coverage,
}

impl SinkKind {
    /// The clause key this kind is written with.
    pub fn key(self) -> &'static str {
        match self {
            SinkKind::Race => "race",
            SinkKind::Deadlock => "deadlock",
            SinkKind::Coverage => "cov",
        }
    }
}

/// A complete declarative tool configuration.
///
/// The value type behind the textual grammar: parse with
/// [`ToolSpec::parse`], print with [`ToolSpec::canonical`], resolve into a
/// runnable [`ToolConfig`](crate::ToolConfig) with [`ToolSpec::resolve`].
#[derive(Clone, Debug, PartialEq)]
pub struct ToolSpec {
    /// The scheduler component (first component of the spec).
    pub scheduler: ComponentSpec,
    /// The noise component (`noise=`; default `none`).
    pub noise: ComponentSpec,
    /// Noise placement (`place=`; default everywhere).
    pub place: Option<ComponentSpec>,
    /// Detector / coverage sinks in written order (`race=`, `deadlock=`,
    /// `cov=`; each key may repeat).
    pub sinks: Vec<(SinkKind, ComponentSpec)>,
    /// Spurious-wakeup probability (`spurious=`).
    pub spurious: Option<f64>,
    /// Execution backend (`backend=`; defaults to the deterministic model
    /// engine). `backend=native` runs the program on real OS threads.
    pub backend: RuntimeBackend,
    /// Display-name override (`name=`; must be the last clause). Without
    /// it a tool is displayed as its canonical spec string.
    pub name: Option<String>,
}

impl ToolSpec {
    /// A spec with the given scheduler, no noise, and nothing else.
    pub fn bare(scheduler: ComponentSpec) -> Self {
        ToolSpec {
            scheduler,
            noise: ComponentSpec::bare("none"),
            place: None,
            sinks: Vec::new(),
            spurious: None,
            backend: RuntimeBackend::Model,
            name: None,
        }
    }

    /// The display name: the `name=` override when present, otherwise the
    /// canonical spec string itself.
    pub fn display_name(&self) -> String {
        self.name.clone().unwrap_or_else(|| self.canonical())
    }

    /// Pretty-print in canonical clause order: scheduler, `noise=` (omitted
    /// when it is a bare `none`), `place=`, sinks in stored order,
    /// `spurious=`, `backend=` (omitted for the default model backend, so
    /// every pre-existing spec string is unchanged), `name=`. Parsing the
    /// canonical form reproduces the spec exactly.
    pub fn canonical(&self) -> String {
        let mut out = self.scheduler.to_string();
        if !(self.noise.id == "none" && self.noise.params.is_empty()) {
            out.push_str(&format!("+noise={}", self.noise));
        }
        if let Some(place) = &self.place {
            out.push_str(&format!("+place={place}"));
        }
        for (kind, sink) in &self.sinks {
            out.push_str(&format!("+{}={sink}", kind.key()));
        }
        if let Some(p) = self.spurious {
            out.push_str(&format!("+spurious={p}"));
        }
        if self.backend.is_native() {
            out.push_str(&format!("+backend={}", self.backend.tag()));
        }
        if let Some(name) = &self.name {
            out.push_str(&format!("+name={name}"));
        }
        out
    }

    /// The first clause beyond the scheduler, `noise=` and `name=`, written
    /// as in the canonical form (`place=sync`, `race=hb`, `spurious=0.05`,
    /// `backend=native`), or `None`: what an experiment that runs only a tool's
    /// scheduler and noise maker would drop.
    pub fn beyond_scheduler_and_noise(&self) -> Option<String> {
        if let Some(place) = &self.place {
            return Some(format!("place={place}"));
        }
        if let Some((kind, sink)) = self.sinks.first() {
            return Some(format!("{}={sink}", kind.key()));
        }
        if let Some(p) = self.spurious {
            return Some(format!("spurious={p}"));
        }
        self.backend
            .is_native()
            .then(|| format!("backend={}", self.backend.tag()))
    }

    /// Parse and fully validate one spec. Errors point at the offending
    /// column of `text`.
    pub fn parse(text: &str) -> Result<ToolSpec, SpecError> {
        Parser::new(text).parse()
    }

    /// Parse a comma-separated list of specs (the `--tools` flag format).
    pub fn parse_list(text: &str) -> Result<Vec<ToolSpec>, SpecError> {
        let mut specs = Vec::new();
        let mut offset = 0usize;
        for part in text.split(',') {
            let trimmed = part.trim();
            let lead = part.len() - part.trim_start().len();
            if trimmed.is_empty() {
                return Err(SpecError::new(text, offset + lead, "empty tool spec"));
            }
            specs.push(ToolSpec::parse(trimmed).map_err(|e| e.embedded(text, offset + lead))?);
            offset += part.len() + 1;
        }
        Ok(specs)
    }

    /// Parse a tools file: one spec per line; blank lines and `#` comments
    /// are skipped. Errors carry the 1-based line number.
    pub fn parse_file(text: &str) -> Result<Vec<ToolSpec>, SpecError> {
        let mut specs = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let lead = raw.len() - raw.trim_start().len();
            specs.push(ToolSpec::parse(line).map_err(|mut e| {
                e.line = Some(i + 1);
                e.col += lead;
                e.spec = raw.to_string();
                e
            })?);
        }
        Ok(specs)
    }
}

impl fmt::Display for ToolSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

/// Specs serialize as their canonical string — compact in NDJSON and
/// trivially diffable.
impl ToJson for ToolSpec {
    fn write_json(&self, out: &mut String) {
        self.canonical().write_json(out);
    }
}

impl FromJson for ToolSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let s = v
            .as_str()
            .ok_or_else(|| JsonError::msg("ToolSpec must be a string"))?;
        ToolSpec::parse(s).map_err(|e| JsonError::msg(format!("invalid tool spec: {}", e.message)))
    }
}

/// A spec parse or validation error, pointing at the offending column.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecError {
    /// The text being parsed (one spec, or the surrounding list/file line).
    pub spec: String,
    /// 1-based column of the error within `spec`.
    pub col: usize,
    /// 1-based line number when the spec came from a file.
    pub line: Option<usize>,
    /// What went wrong.
    pub message: String,
}

impl SpecError {
    fn new(spec: &str, offset: usize, message: impl Into<String>) -> Self {
        SpecError {
            spec: spec.to_string(),
            col: offset + 1,
            line: None,
            message: message.into(),
        }
    }

    /// Re-anchor an error produced while parsing a slice of `outer`
    /// starting at byte `base`.
    fn embedded(mut self, outer: &str, base: usize) -> Self {
        self.col += base;
        self.spec = outer.to_string();
        self
    }

    /// Render the error with a caret under the offending column:
    ///
    /// ```text
    /// sticky:0.9+noise=slep:0.3
    ///                  ^
    /// column 18: unknown noise component `slep` (known: ...)
    /// ```
    pub fn render(&self) -> String {
        let where_ = match self.line {
            Some(l) => format!("line {l}, column {}", self.col),
            None => format!("column {}", self.col),
        };
        format!(
            "{}\n{}^\n{where_}: {}",
            self.spec,
            " ".repeat(self.col.saturating_sub(1)),
            self.message
        )
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl std::error::Error for SpecError {}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { text, pos: 0 }
    }

    fn err(&self, at: usize, msg: impl Into<String>) -> SpecError {
        SpecError::new(self.text, at, msg)
    }

    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    /// `ident` = letters, digits, `-`, `_`, `.` (at least one char).
    fn ident(&mut self) -> Result<&'a str, SpecError> {
        let start = self.pos;
        let end = self
            .rest()
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.'))
            .map_or(self.text.len(), |i| start + i);
        if end == start {
            return Err(self.err(start, "expected a component name"));
        }
        self.pos = end;
        Ok(&self.text[start..end])
    }

    fn number(&mut self) -> Result<f64, SpecError> {
        let start = self.pos;
        let end = self
            .rest()
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
            .map_or(self.text.len(), |i| start + i);
        let s = &self.text[start..end];
        let n: f64 = s
            .parse()
            .map_err(|_| self.err(start, format!("`{s}` is not a number")))?;
        if !n.is_finite() {
            return Err(self.err(start, format!("`{s}` is not a finite number")));
        }
        self.pos = end;
        Ok(n)
    }

    /// `component := ident (':' number)*`, validated against the registry.
    fn component(
        &mut self,
        kind: crate::registry::ComponentKind,
    ) -> Result<ComponentSpec, SpecError> {
        let start = self.pos;
        let id = self.ident()?;
        let mut params = Vec::new();
        while self.rest().starts_with(':') {
            self.pos += 1;
            params.push(self.number()?);
        }
        let spec = ComponentSpec {
            id: id.to_string(),
            params,
        };
        crate::registry::validate_component(kind, &spec).map_err(|msg| self.err(start, msg))?;
        Ok(spec)
    }

    fn parse(mut self) -> Result<ToolSpec, SpecError> {
        use crate::registry::ComponentKind;
        let mut spec = ToolSpec::bare(self.component(ComponentKind::Scheduler)?);
        let mut saw_noise = false;
        let mut saw_place = false;
        let mut saw_backend = false;
        while !self.rest().is_empty() {
            if !self.rest().starts_with('+') {
                return Err(self.err(self.pos, "expected `+` before the next clause"));
            }
            self.pos += 1;
            let key_start = self.pos;
            let key = self.ident()?;
            if !self.rest().starts_with('=') {
                return Err(self.err(self.pos, format!("expected `=` after clause key `{key}`")));
            }
            self.pos += 1;
            match key {
                "noise" => {
                    if saw_noise {
                        return Err(self.err(key_start, "duplicate `noise=` clause"));
                    }
                    saw_noise = true;
                    spec.noise = self.component(ComponentKind::Noise)?;
                }
                "place" => {
                    if saw_place {
                        return Err(self.err(key_start, "duplicate `place=` clause"));
                    }
                    saw_place = true;
                    spec.place = Some(self.component(ComponentKind::Placement)?);
                }
                "race" => {
                    let c = self.component(ComponentKind::Race)?;
                    spec.sinks.push((SinkKind::Race, c));
                }
                "deadlock" => {
                    let c = self.component(ComponentKind::Deadlock)?;
                    spec.sinks.push((SinkKind::Deadlock, c));
                }
                "cov" => {
                    let c = self.component(ComponentKind::Coverage)?;
                    spec.sinks.push((SinkKind::Coverage, c));
                }
                "spurious" => {
                    if spec.spurious.is_some() {
                        return Err(self.err(key_start, "duplicate `spurious=` clause"));
                    }
                    let at = self.pos;
                    let p = self.number()?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(
                            self.err(at, format!("spurious probability {p} is not in [0, 1]"))
                        );
                    }
                    spec.spurious = Some(p);
                }
                "backend" => {
                    if saw_backend {
                        return Err(self.err(key_start, "duplicate `backend=` clause"));
                    }
                    saw_backend = true;
                    let at = self.pos;
                    let id = self.ident()?;
                    spec.backend = RuntimeBackend::parse(id).ok_or_else(|| {
                        self.err(at, format!("unknown backend `{id}` (known: model, native)"))
                    })?;
                }
                "name" => {
                    // The name is taken verbatim to the end of the string,
                    // so legacy display names like `sticky+yield` survive.
                    let name = self.rest();
                    if name.is_empty() {
                        return Err(self.err(self.pos, "`name=` needs a value"));
                    }
                    spec.name = Some(name.to_string());
                    self.pos = self.text.len();
                }
                other => {
                    return Err(self.err(
                        key_start,
                        format!(
                            "unknown clause key `{other}` (known: noise, place, race, \
                             deadlock, cov, spurious, backend, name)"
                        ),
                    ))
                }
            }
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_issue_example() {
        let s = ToolSpec::parse("pct:3:150+noise=mixed:0.2:20+race=lockset").unwrap();
        assert_eq!(s.scheduler.id, "pct");
        assert_eq!(s.scheduler.params, vec![3.0, 150.0]);
        assert_eq!(s.noise.id, "mixed");
        assert_eq!(
            s.sinks,
            vec![(SinkKind::Race, ComponentSpec::bare("lockset"))]
        );
        assert_eq!(s.canonical(), "pct:3:150+noise=mixed:0.2:20+race=lockset");
    }

    #[test]
    fn name_is_verbatim_to_end_of_string() {
        let s = ToolSpec::parse("sticky:0.9+noise=yield:0.3+name=sticky+yield").unwrap();
        assert_eq!(s.name.as_deref(), Some("sticky+yield"));
        assert_eq!(s.display_name(), "sticky+yield");
        assert_eq!(ToolSpec::parse(&s.canonical()).unwrap(), s);
    }

    #[test]
    fn bare_none_noise_is_omitted_from_canonical() {
        let s = ToolSpec::parse("sticky:0.9+noise=none").unwrap();
        assert_eq!(s.canonical(), "sticky:0.9");
        assert_eq!(ToolSpec::parse("sticky:0.9").unwrap(), s);
    }

    #[test]
    fn beyond_scheduler_and_noise_names_the_first_other_clause() {
        let beyond = |text: &str| ToolSpec::parse(text).unwrap().beyond_scheduler_and_noise();
        assert_eq!(beyond("sticky:0.9+noise=yield:0.3+name=a+b"), None);
        assert_eq!(
            beyond("fifo+place=sync+race=hb").as_deref(),
            Some("place=sync")
        );
        assert_eq!(beyond("fifo+race=hb+cov=sites").as_deref(), Some("race=hb"));
        assert_eq!(
            beyond("fifo+deadlock=waitsfor").as_deref(),
            Some("deadlock=waitsfor")
        );
        assert_eq!(
            beyond("fifo+spurious=0.05").as_deref(),
            Some("spurious=0.05")
        );
        assert_eq!(
            beyond("fifo+backend=native").as_deref(),
            Some("backend=native")
        );
        assert_eq!(beyond("fifo+backend=model"), None);
    }

    #[test]
    fn errors_point_at_the_column() {
        let e = ToolSpec::parse("sticky:0.9+noise=slep:0.3").unwrap_err();
        assert_eq!(e.col, 18, "{e}");
        assert!(e.message.contains("slep"), "{e}");
        let rendered = e.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines[0], "sticky:0.9+noise=slep:0.3");
        assert_eq!(lines[1].len(), 18);
        assert!(lines[1].ends_with('^'));
        assert!(lines[2].starts_with("column 18:"));
    }

    #[test]
    fn out_of_range_params_are_rejected() {
        assert!(ToolSpec::parse("sticky:1.5").is_err());
        assert!(ToolSpec::parse("pct:0").is_err());
        assert!(ToolSpec::parse("sticky+noise=yield:2").is_err());
        assert!(ToolSpec::parse("sticky+spurious=7").is_err());
        assert!(ToolSpec::parse("sticky:0.9:3").is_err(), "excess params");
    }

    #[test]
    fn duplicate_scalar_clauses_are_rejected() {
        assert!(ToolSpec::parse("sticky+noise=yield+noise=sleep").is_err());
        assert!(ToolSpec::parse("sticky+spurious=0.1+spurious=0.2").is_err());
        // Sinks may repeat: two detectors compose.
        let s = ToolSpec::parse("sticky+race=lockset+race=hb").unwrap();
        assert_eq!(s.sinks.len(), 2);
    }

    #[test]
    fn list_and_file_forms_carry_position_info() {
        let specs = ToolSpec::parse_list("fifo, sticky:0.9").unwrap();
        assert_eq!(specs.len(), 2);
        let e = ToolSpec::parse_list("fifo, bogus").unwrap_err();
        assert_eq!(e.col, 7, "{e}");

        let specs = ToolSpec::parse_file("# roster\nfifo\n\nsticky:0.9\n").unwrap();
        assert_eq!(specs.len(), 2);
        let e = ToolSpec::parse_file("fifo\nsticky:9\n").unwrap_err();
        assert_eq!(e.line, Some(2));
        assert!(e.render().starts_with("sticky:9\n"), "{e}");
        assert!(e.render().contains("line 2, column"), "{e}");
    }

    #[test]
    fn backend_clause_parses_and_canonicalizes() {
        let s = ToolSpec::parse("sticky:0.9+backend=native+name=nat").unwrap();
        assert!(s.backend.is_native());
        assert_eq!(s.canonical(), "sticky:0.9+backend=native+name=nat");
        assert_eq!(ToolSpec::parse(&s.canonical()).unwrap(), s);

        // `backend=model` is the default and canonicalizes away entirely —
        // this is what keeps every pre-existing spec string byte-identical.
        let m = ToolSpec::parse("sticky:0.9+backend=model").unwrap();
        assert_eq!(m.backend, RuntimeBackend::Model);
        assert_eq!(m.canonical(), "sticky:0.9");
        assert_eq!(m, ToolSpec::parse("sticky:0.9").unwrap());

        assert!(ToolSpec::parse("sticky+backend=jvm").is_err());
        assert!(ToolSpec::parse("sticky+backend=native+backend=native").is_err());
    }

    #[test]
    fn json_roundtrip_via_canonical_string() {
        let s = ToolSpec::parse("pct:3:150+noise=mixed:0.2:20+spurious=0.05").unwrap();
        let j = mtt_json::to_string(&s);
        assert_eq!(j, "\"pct:3:150+noise=mixed:0.2:20+spurious=0.05\"");
        let back: ToolSpec = FromJson::from_json(&Json::parse(&j).unwrap()).unwrap();
        assert_eq!(back, s);
        assert!(<ToolSpec as FromJson>::from_json(&Json::Str("bogus%".into())).is_err());
    }
}
