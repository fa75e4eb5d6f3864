//! [`Registry`] — the one name-indexed table every spec family
//! (policies, traffic models, distributions, dispatchers, fleet
//! policies) resolves its names through.
//!
//! A registry is a list of flat [`Entry`]s plus the family's label for
//! [`SpecError::UnknownName`] and the name key of its TOML/JSON
//! grammars. It owns the lookup (names and aliases, case-insensitive),
//! the error decoration (unknown names list the registered ones,
//! unknown keys list the entry's accepted ones) and one entry point per
//! grammar. The domain crate owns the entries and their builders.

use std::fmt;

use crate::{ParamInfo, Params, SpecError};

/// One registered spec builder and its self-description.
#[derive(Debug)]
pub struct Entry<S> {
    /// Canonical name used in specs and help output.
    pub name: &'static str,
    /// Accepted alternative names.
    pub aliases: &'static [&'static str],
    /// One-line description.
    pub summary: &'static str,
    /// Accepted parameters.
    pub params: &'static [ParamInfo],
    /// Validates the parameters and produces the spec. It finishes the
    /// parameter bag under [`Entry::name`], so the registry can tell
    /// this entry's own unknown keys from a nested child's.
    pub build: fn(Params) -> Result<S, SpecError>,
}

/// Name-indexed collection of spec builders, in registration order.
pub struct Registry<S> {
    kind: &'static str,
    name_key: &'static str,
    entries: Vec<Entry<S>>,
}

impl<S> fmt::Debug for Registry<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("kind", &self.kind)
            .field("names", &self.name_list())
            .finish()
    }
}

impl<S> Registry<S> {
    /// A registry of `entries`. `kind` names the family in
    /// [`SpecError::UnknownName`] (`"policy"`, `"traffic model"`);
    /// `name_key` is the entry that carries the name in the TOML and
    /// JSON grammars (`policy = "tdvs"`).
    #[must_use]
    pub fn new(kind: &'static str, name_key: &'static str, entries: Vec<Entry<S>>) -> Self {
        Registry {
            kind,
            name_key,
            entries,
        }
    }

    /// Builds a validated spec for `name` (case-insensitive, aliases
    /// accepted) from raw parameters.
    ///
    /// An [`SpecError::UnknownParam`] raised by the entry itself gains
    /// the entry's accepted keys. One a nested child raised (its
    /// `owner` is another entry, e.g. a `schedule` segment) keeps the
    /// child's list.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for unknown names, unknown keys or
    /// invalid values.
    pub fn build_spec(&self, name: &str, params: Params) -> Result<S, SpecError> {
        let entry = self.info(name).ok_or_else(|| SpecError::UnknownName {
            kind: self.kind,
            name: name.to_ascii_lowercase(),
            known: self.name_list(),
        })?;
        (entry.build)(params).map_err(|e| match &e {
            SpecError::UnknownParam { owner, .. } if owner != entry.name => e,
            _ => e.with_accepted_keys(entry.params),
        })
    }

    /// Every registered entry, registration order.
    pub fn infos(&self) -> impl Iterator<Item = &Entry<S>> {
        self.entries.iter()
    }

    /// One entry, by name or alias (case-insensitive).
    #[must_use]
    pub fn info(&self, name: &str) -> Option<&Entry<S>> {
        let wanted = name.to_ascii_lowercase();
        self.entries
            .iter()
            .find(|e| e.name == wanted || e.aliases.contains(&wanted.as_str()))
    }

    /// Comma-separated canonical names (for error messages and help).
    #[must_use]
    pub fn name_list(&self) -> String {
        self.entries
            .iter()
            .map(|e| e.name)
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Parses the CLI grammar `name[:key=val[,key=val]...]`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for syntax errors or any problem
    /// [`Registry::build_spec`] reports.
    pub fn parse_cli(&self, input: &str) -> Result<S, SpecError> {
        let (name, params) = crate::parse_cli(input)?;
        self.build_spec(&name, params)
    }

    /// Parses a flat TOML fragment: a `<name_key> = "name"` entry plus
    /// one `key = value` line per parameter.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for syntax errors, a missing name key or
    /// any problem [`Registry::build_spec`] reports.
    pub fn parse_toml(&self, input: &str) -> Result<S, SpecError> {
        let (name, params) = crate::parse_flat_toml(input, self.name_key)?;
        self.build_spec(&name, params)
    }

    /// Parses a flat JSON object `{"<name_key>": "name", "key": value}`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for syntax errors, a missing name key or
    /// any problem [`Registry::build_spec`] reports.
    pub fn parse_json(&self, input: &str) -> Result<S, SpecError> {
        let (name, params) = crate::parse_flat_json(input, self.name_key)?;
        self.build_spec(&name, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy family: `leaf` takes `x`; `nest` builds a `leaf` from its
    /// `child` value, so a child's error passes through it.
    fn registry() -> Registry<f64> {
        fn leaf(mut params: Params) -> Result<f64, SpecError> {
            let x = params.positive_f64("x", 1.0)?;
            params.finish("leaf")?;
            Ok(x)
        }
        fn nest(mut params: Params) -> Result<f64, SpecError> {
            let child = params
                .maybe_str("child")
                .unwrap_or_else(|| "leaf".to_owned());
            params.finish("nest")?;
            registry().parse_cli(&child)
        }
        const X: ParamInfo = ParamInfo {
            key: "x",
            default: "1",
            help: "a positive number",
        };
        const CHILD: ParamInfo = ParamInfo {
            key: "child",
            default: "leaf",
            help: "a leaf spec",
        };
        Registry::new(
            "toy",
            "toy",
            vec![
                Entry {
                    name: "leaf",
                    aliases: &["tip", "end"],
                    summary: "one number",
                    params: &[X],
                    build: leaf,
                },
                Entry {
                    name: "nest",
                    aliases: &[],
                    summary: "a leaf inside",
                    params: &[CHILD],
                    build: nest,
                },
            ],
        )
    }

    fn with(key: &str, value: &str) -> Params {
        let mut params = Params::default();
        params.insert(key, value);
        params
    }

    #[test]
    fn names_and_aliases_resolve_case_insensitively() {
        let r = registry();
        for name in ["leaf", "LEAF", "tip", "End"] {
            assert_eq!(r.build_spec(name, with("x", "2")), Ok(2.0), "{name}");
            assert_eq!(r.info(name).map(|e| e.name), Some("leaf"), "{name}");
        }
        assert!(r.info("stem").is_none());
    }

    #[test]
    fn unknown_name_lists_names_in_registration_order() {
        let err = registry()
            .build_spec("Stem", Params::default())
            .unwrap_err();
        assert_eq!(
            err,
            SpecError::UnknownName {
                kind: "toy",
                name: "stem".to_owned(),
                known: "leaf, nest".to_owned(),
            }
        );
        assert_eq!(registry().name_list(), "leaf, nest");
    }

    #[test]
    fn an_entrys_own_unknown_key_lists_its_accepted_keys() {
        let err = registry().build_spec("tip", with("y", "1")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "'leaf' accepts no parameter 'y' (accepted: x)"
        );
        let err = registry().build_spec("nest", with("y", "1")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "'nest' accepts no parameter 'y' (accepted: child)"
        );
    }

    #[test]
    fn a_nested_childs_unknown_key_passes_through() {
        let err = registry()
            .build_spec("nest", with("child", "leaf:y=1"))
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "'leaf' accepts no parameter 'y' (accepted: x)"
        );
    }

    #[test]
    fn every_grammar_reaches_the_same_builder() {
        let r = registry();
        assert_eq!(r.parse_cli("leaf:x=3"), Ok(3.0));
        assert_eq!(r.parse_toml("toy = \"tip\"\nx = 3\n"), Ok(3.0));
        assert_eq!(r.parse_json(r#"{"toy": "leaf", "x": 3}"#), Ok(3.0));
        assert!(matches!(
            r.parse_toml("x = 3"),
            Err(SpecError::Malformed { .. })
        ));
        assert!(matches!(
            r.parse_json(r#"{"toy": "leaf", "x": -3}"#),
            Err(SpecError::InvalidValue { .. })
        ));
    }
}
