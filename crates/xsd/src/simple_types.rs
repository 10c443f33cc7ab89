//! A small registry of XML Schema simple types with value validation.
//!
//! The paper treats datatypes as "unavoidable cosmetics" outside the formal
//! model (Section 4), and notes that BonXai does not define simple types
//! natively (Section 5) — it refers to the `xs:` built-ins. This registry
//! covers the built-ins that the paper's examples and realistic schemas
//! use; unknown `xs:` names fall back to `AnySimpleType`.

use std::fmt;

use xmltree::is_xml_whitespace;

/// A built-in XML Schema simple type.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SimpleType {
    /// `xs:string` — any string.
    String,
    /// `xs:boolean` — `true`, `false`, `1`, `0`.
    Boolean,
    /// `xs:integer` — optionally signed decimal integer.
    Integer,
    /// `xs:nonNegativeInteger`.
    NonNegativeInteger,
    /// `xs:positiveInteger`.
    PositiveInteger,
    /// `xs:decimal` — decimal number.
    Decimal,
    /// `xs:double` — floating point (also covers `xs:float`).
    Double,
    /// `xs:date` — `YYYY-MM-DD`.
    Date,
    /// `xs:time` — `hh:mm:ss(.fff)?`.
    Time,
    /// `xs:dateTime` — `YYYY-MM-DDThh:mm:ss`.
    DateTime,
    /// `xs:anyURI` — any string (URI syntax not enforced).
    AnyUri,
    /// `xs:ID` — an XML name, unique per document.
    Id,
    /// `xs:IDREF` — an XML name referencing an ID.
    IdRef,
    /// `xs:NMTOKEN` — a name token.
    NmToken,
    /// `xs:token`/`xs:normalizedString` — whitespace-normalized string.
    Token,
    /// `xs:anySimpleType` — anything (also the fallback for unknown names).
    AnySimpleType,
}

impl SimpleType {
    /// Resolves a QName like `xs:string` (any prefix) or a bare local name.
    pub fn from_qname(qname: &str) -> SimpleType {
        let local = qname.rsplit_once(':').map_or(qname, |(_, l)| l);
        match local {
            "string" => SimpleType::String,
            "boolean" => SimpleType::Boolean,
            "integer" | "int" | "long" | "short" | "byte" => SimpleType::Integer,
            "nonNegativeInteger" | "unsignedInt" | "unsignedLong" | "unsignedShort"
            | "unsignedByte" => SimpleType::NonNegativeInteger,
            "positiveInteger" => SimpleType::PositiveInteger,
            "decimal" => SimpleType::Decimal,
            "double" | "float" => SimpleType::Double,
            "date" => SimpleType::Date,
            "time" => SimpleType::Time,
            "dateTime" => SimpleType::DateTime,
            "anyURI" => SimpleType::AnyUri,
            "ID" => SimpleType::Id,
            "IDREF" => SimpleType::IdRef,
            "NMTOKEN" => SimpleType::NmToken,
            "token" | "normalizedString" => SimpleType::Token,
            _ => SimpleType::AnySimpleType,
        }
    }

    /// The canonical `xs:`-prefixed name.
    pub fn qname(&self) -> &'static str {
        match self {
            SimpleType::String => "xs:string",
            SimpleType::Boolean => "xs:boolean",
            SimpleType::Integer => "xs:integer",
            SimpleType::NonNegativeInteger => "xs:nonNegativeInteger",
            SimpleType::PositiveInteger => "xs:positiveInteger",
            SimpleType::Decimal => "xs:decimal",
            SimpleType::Double => "xs:double",
            SimpleType::Date => "xs:date",
            SimpleType::Time => "xs:time",
            SimpleType::DateTime => "xs:dateTime",
            SimpleType::AnyUri => "xs:anyURI",
            SimpleType::Id => "xs:ID",
            SimpleType::IdRef => "xs:IDREF",
            SimpleType::NmToken => "xs:NMTOKEN",
            SimpleType::Token => "xs:token",
            SimpleType::AnySimpleType => "xs:anySimpleType",
        }
    }

    /// The *value-semantics class* of the type: types in the same class
    /// accept exactly the same lexical values, so schema comparison
    /// treats them as interchangeable (`xs:string`, `xs:anyURI`,
    /// `xs:token`, and `xs:anySimpleType` all accept every string).
    pub fn value_class(&self) -> u8 {
        match self {
            SimpleType::String
            | SimpleType::AnyUri
            | SimpleType::Token
            | SimpleType::AnySimpleType => 0,
            SimpleType::Boolean => 1,
            SimpleType::Integer => 2,
            SimpleType::NonNegativeInteger => 3,
            SimpleType::PositiveInteger => 4,
            SimpleType::Decimal => 5,
            SimpleType::Double => 6,
            SimpleType::Date => 7,
            SimpleType::Time => 8,
            SimpleType::DateTime => 9,
            // ID/IDREF/NMTOKEN accept the same token syntax
            SimpleType::Id | SimpleType::IdRef | SimpleType::NmToken => 10,
        }
    }

    /// Whether `value` is a valid lexical form of this type.
    pub fn validates(&self, value: &str) -> bool {
        match self {
            SimpleType::String | SimpleType::AnyUri | SimpleType::AnySimpleType => true,
            SimpleType::Token => true, // any string normalizes
            // All remaining built-ins have whiteSpace=collapse: leading
            // and trailing XML whitespace never affects validity.
            SimpleType::Boolean => matches!(
                value.trim_matches(is_xml_whitespace),
                "true" | "false" | "1" | "0"
            ),
            SimpleType::Integer => parse_integer(value).is_some(),
            SimpleType::NonNegativeInteger => parse_integer(value).is_some_and(|v| v >= 0),
            SimpleType::PositiveInteger => parse_integer(value).is_some_and(|v| v > 0),
            SimpleType::Decimal => is_decimal(value),
            SimpleType::Double => is_double(value),
            SimpleType::Date => is_date(value.trim_matches(is_xml_whitespace)),
            SimpleType::Time => is_time(value.trim_matches(is_xml_whitespace)),
            SimpleType::DateTime => value
                .trim_matches(is_xml_whitespace)
                .split_once('T')
                .is_some_and(|(d, t)| is_date(d) && is_time(t)),
            SimpleType::Id | SimpleType::IdRef | SimpleType::NmToken => is_nmtoken(value),
        }
    }
}

impl fmt::Display for SimpleType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.qname())
    }
}

/// Restriction facets on a simple type (`<xs:restriction>`).
///
/// The paper's Section 5 names native simple types as "one of the most
/// desirable extensions of the current language" — this implements the
/// extension: BonXai writes `{ type xs:integer { min "0", max "100" } }`
/// and the XSD side round-trips it as an `xs:restriction`.
///
/// Bounds are stored lexically; for numeric bases they compare by value,
/// otherwise lexicographically (the common string-enumeration case uses
/// `enumeration` anyway). The `xs:pattern` facet is not supported.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Facets {
    /// `xs:minInclusive`.
    pub min_inclusive: Option<String>,
    /// `xs:maxInclusive`.
    pub max_inclusive: Option<String>,
    /// `xs:minLength`.
    pub min_length: Option<u32>,
    /// `xs:maxLength`.
    pub max_length: Option<u32>,
    /// `xs:enumeration` values (empty = unconstrained).
    pub enumeration: Vec<String>,
}

impl Facets {
    /// Whether no facet is set.
    pub fn is_empty(&self) -> bool {
        *self == Facets::default()
    }

    /// Whether `value` (already valid for `base`) satisfies the facets.
    pub fn validates(&self, base: SimpleType, value: &str) -> bool {
        if self.is_empty() {
            // No facets (the overwhelmingly common case on the validation
            // hot path): skip the length count below.
            return true;
        }
        if !self.enumeration.is_empty() && !self.enumeration.iter().any(|e| e == value) {
            return false;
        }
        let len = value.chars().count() as u32;
        if self.min_length.is_some_and(|m| len < m) {
            return false;
        }
        if self.max_length.is_some_and(|m| len > m) {
            return false;
        }
        // Incomparable pairs (unparseable bound or value, NaN) fail
        // closed: a bound that cannot be compared admits nothing.
        // [`Facets::check`] rejects such bounds at schema-parse time.
        if let Some(min) = &self.min_inclusive {
            match compare_values(base, min, value) {
                Some(std::cmp::Ordering::Greater) | None => return false,
                _ => {}
            }
        }
        if let Some(max) = &self.max_inclusive {
            match compare_values(base, max, value) {
                Some(std::cmp::Ordering::Less) | None => return false,
                _ => {}
            }
        }
        true
    }

    /// Checks the facet bounds *themselves* against the base type, so a
    /// bad bound is a schema error at parse time rather than a facet
    /// that silently rejects every value at validation time. Returns a
    /// human-readable reason on failure.
    pub fn check(&self, base: SimpleType) -> Result<(), String> {
        for (facet, bound) in [("min", &self.min_inclusive), ("max", &self.max_inclusive)] {
            if let Some(b) = bound {
                if !base.validates(b.trim_matches(is_xml_whitespace)) {
                    return Err(format!(
                        "{facet} bound {b:?} is not a valid {}",
                        base.qname()
                    ));
                }
                if base == SimpleType::Double && b.trim_matches(is_xml_whitespace) == "NaN" {
                    return Err(format!("{facet} bound NaN is incomparable"));
                }
            }
        }
        if let (Some(min), Some(max)) = (&self.min_inclusive, &self.max_inclusive) {
            if compare_values(base, min, max) == Some(std::cmp::Ordering::Greater) {
                return Err(format!("min bound {min:?} exceeds max bound {max:?}"));
            }
        }
        if let (Some(lo), Some(hi)) = (self.min_length, self.max_length) {
            if lo > hi {
                return Err(format!("minLength {lo} exceeds maxLength {hi}"));
            }
        }
        Ok(())
    }

    /// Renders the facets in BonXai syntax (`{ min "0", enum "a" }`).
    pub fn display(&self) -> String {
        let mut parts = Vec::new();
        if let Some(v) = &self.min_inclusive {
            parts.push(format!("min {v:?}"));
        }
        if let Some(v) = &self.max_inclusive {
            parts.push(format!("max {v:?}"));
        }
        if let Some(v) = self.min_length {
            parts.push(format!("minLength \"{v}\""));
        }
        if let Some(v) = self.max_length {
            parts.push(format!("maxLength \"{v}\""));
        }
        for e in &self.enumeration {
            parts.push(format!("enum {e:?}"));
        }
        format!("{{ {} }}", parts.join(", "))
    }
}

/// Whether `value` lies in the value space of `base` restricted by
/// `facets` — the exact predicate the validator applies to simple
/// content and attribute values.
pub fn admits(base: SimpleType, facets: &Facets, value: &str) -> bool {
    base.validates(value) && facets.validates(base, value)
}

/// The **canonical value** of a restricted simple type: a deterministic
/// lexical form in the value space of `base` + `facets`, or `None` when
/// the candidate probes find none (e.g. an enumeration whose members are
/// all invalid for the base type). Used by the schema-diff engine to
/// materialize witness documents — required attributes and simple
/// content need *some* concrete value, and it must be the same one on
/// every run.
///
/// The value is chosen from a fixed candidate list (enumeration members
/// first, then the facet bounds, then per-type defaults), so the result
/// depends only on the inputs.
pub fn canonical_value(base: SimpleType, facets: &Facets) -> Option<String> {
    candidate_values(base, facets)
        .into_iter()
        .find(|v| admits(base, facets, v))
}

/// A value in the space of `a` but **not** in the space of `b`, if the
/// candidate probes find one. `None` means no difference was found — for
/// structurally equal specs that is exact; otherwise it is a
/// probe-based under-approximation (the probe set covers enumeration
/// membership, numeric and lexicographic bounds incl. off-by-one
/// boundary values, length facets, and cross-type lexical differences).
pub fn value_space_witness(a: (SimpleType, &Facets), b: (SimpleType, &Facets)) -> Option<String> {
    // Types in one value class accept the same lexical forms, so equal
    // facets mean provably identical value spaces.
    if a.0.value_class() == b.0.value_class() && a.1 == b.1 {
        return None;
    }
    let mut candidates = candidate_values(a.0, a.1);
    candidates.extend(boundary_probes(b.0, b.1));
    candidates
        .into_iter()
        .find(|v| admits(a.0, a.1, v) && !admits(b.0, b.1, v))
}

/// Deterministic candidate values for the space of `base` + `facets`:
/// enumeration members, facet bounds, then fixed per-type probes (not
/// yet filtered for validity).
fn candidate_values(base: SimpleType, facets: &Facets) -> Vec<String> {
    let mut out: Vec<String> = facets.enumeration.clone();
    out.extend(facets.min_inclusive.iter().cloned());
    out.extend(facets.max_inclusive.iter().cloned());
    let min_len = facets.min_length.unwrap_or(0).max(1) as usize;
    match base.value_class() {
        0 => {
            // string-like: respect minLength; include probes that other
            // value classes reject (spaces, non-numeric, empty).
            out.push("x".repeat(min_len));
            out.push("x".to_string());
            out.push("two words".to_string());
            out.push(String::new());
        }
        1 => out.extend(["true", "false", "1", "0"].map(str::to_string)),
        2 => out.extend(["0", "1", "-1", &"1".repeat(min_len)].map(str::to_string)),
        3 => out.extend(["0", "1", &"1".repeat(min_len)].map(str::to_string)),
        4 => out.extend(["1", &"1".repeat(min_len)].map(str::to_string)),
        5 => out.extend(["0", "1", "0.5", "-1", "-0.5"].map(str::to_string)),
        6 => out.extend(["0", "1", "0.5", "-1", "1e5", "INF"].map(str::to_string)),
        7 => out.extend(["2024-01-01", "0001-01-01", "9999-12-31"].map(str::to_string)),
        8 => out.extend(["12:00:00", "00:00:00", "23:59:59"].map(str::to_string)),
        9 => out.extend(
            [
                "2024-01-01T12:00:00",
                "0001-01-01T00:00:00",
                "9999-12-31T23:59:59",
            ]
            .map(str::to_string),
        ),
        _ => {
            // NMTOKEN-like: name characters only.
            out.push("x".repeat(min_len));
            out.push("x".to_string());
            out.push("tok-1".to_string());
        }
    }
    out
}

/// Probes derived from `b`'s facets that step just *outside* its
/// restrictions (but may still be valid for another spec): one past each
/// inclusive bound, one short of / past each length bound, and a
/// suffix-mutated enumeration member.
fn boundary_probes(base: SimpleType, facets: &Facets) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(min) = &facets.min_inclusive {
        match base.value_class() {
            2..=4 => {
                if let Some(v) = parse_integer(min) {
                    out.push((v - 1).to_string());
                }
            }
            5 | 6 => {
                if let Some(v) = parse_double(min) {
                    if v.is_finite() {
                        out.push(format!("{}", v - 1.0));
                    }
                }
            }
            _ => {
                // Lexicographically smaller: a proper prefix, and the
                // empty string as the global minimum.
                let mut chars = min.chars();
                chars.next_back();
                out.push(chars.as_str().to_string());
                out.push(String::new());
            }
        }
    }
    if let Some(max) = &facets.max_inclusive {
        match base.value_class() {
            2..=4 => {
                if let Some(v) = parse_integer(max) {
                    out.push((v + 1).to_string());
                }
            }
            5 | 6 => {
                if let Some(v) = parse_double(max) {
                    if v.is_finite() {
                        out.push(format!("{}", v + 1.0));
                    }
                }
            }
            _ => out.push(format!("{max}z")),
        }
    }
    if let Some(lo) = facets.min_length {
        if lo > 0 {
            out.push("x".repeat(lo as usize - 1));
            if matches!(base.value_class(), 2..=4) && lo > 1 {
                out.push("1".repeat(lo as usize - 1));
            }
        }
    }
    if let Some(hi) = facets.max_length {
        out.push("x".repeat(hi as usize + 1));
        if matches!(base.value_class(), 2..=4) {
            out.push("1".repeat(hi as usize + 1));
        }
    }
    if !facets.enumeration.is_empty() {
        // A value outside the enumeration: mutate members until one is
        // no member (append a digit for numeric bases, a letter else).
        for e in &facets.enumeration {
            let probe = if matches!(base.value_class(), 2..=6) {
                format!("{e}1")
            } else {
                format!("{e}z")
            };
            if !facets.enumeration.contains(&probe) {
                out.push(probe);
                break;
            }
        }
    }
    out
}

/// Value comparison of two lexical forms under `base`'s value space:
/// exact `i128` for the integer types, exact normalized comparison for
/// `xs:decimal` (no float round-trip — `0.10` equals `0.1000`, and
/// values beyond 2^53 keep their order), IEEE semantics for `xs:double`
/// (`INF`/`-INF` compare as infinities). `None` means incomparable:
/// a side fails to parse, or a NaN is involved.
fn compare_values(base: SimpleType, a: &str, b: &str) -> Option<std::cmp::Ordering> {
    match base {
        SimpleType::Integer | SimpleType::NonNegativeInteger | SimpleType::PositiveInteger => {
            Some(parse_integer(a)?.cmp(&parse_integer(b)?))
        }
        SimpleType::Decimal => decimal_cmp(
            a.trim_matches(is_xml_whitespace),
            b.trim_matches(is_xml_whitespace),
        ),
        SimpleType::Double => parse_double(a)?.partial_cmp(&parse_double(b)?),
        _ => Some(a.cmp(b)),
    }
}

fn parse_double(v: &str) -> Option<f64> {
    match v.trim_matches(is_xml_whitespace) {
        "INF" => Some(f64::INFINITY),
        "-INF" => Some(f64::NEG_INFINITY),
        t => t.parse().ok(),
    }
}

/// Splits a decimal lexical form into (negative, integer digits, fraction
/// digits) with leading/trailing zeros stripped, so equal values get
/// equal parts.
fn split_decimal(v: &str) -> Option<(bool, &str, &str)> {
    if !is_decimal(v) {
        return None;
    }
    let (neg, rest) = match v.strip_prefix('-') {
        Some(r) => (true, r),
        None => (false, v.strip_prefix('+').unwrap_or(v)),
    };
    let (int, frac) = rest.split_once('.').unwrap_or((rest, ""));
    Some((neg, int.trim_start_matches('0'), frac.trim_end_matches('0')))
}

/// Exact comparison of two decimal lexical forms. With normalized parts,
/// magnitude order is: more integer digits wins, then the integer digits
/// lexicographically, then the fraction digits lexicographically (which
/// is correct for digit strings after the point: "25" < "3").
fn decimal_cmp(a: &str, b: &str) -> Option<std::cmp::Ordering> {
    use std::cmp::Ordering;
    let (na, ia, fa) = split_decimal(a)?;
    let (nb, ib, fb) = split_decimal(b)?;
    // Zeros compare equal regardless of written sign ("-0.0" == "0").
    let na = na && !(ia.is_empty() && fa.is_empty());
    let nb = nb && !(ib.is_empty() && fb.is_empty());
    if na != nb {
        return Some(if na {
            Ordering::Less
        } else {
            Ordering::Greater
        });
    }
    let magnitude = ia
        .len()
        .cmp(&ib.len())
        .then_with(|| ia.cmp(ib))
        .then_with(|| fa.cmp(fb));
    Some(if na { magnitude.reverse() } else { magnitude })
}

fn parse_integer(v: &str) -> Option<i128> {
    let v = v.trim_matches(is_xml_whitespace);
    if v.is_empty() {
        return None;
    }
    v.parse::<i128>().ok()
}

/// The `xs:double` lexical space: a decimal mantissa with optional
/// exponent, or exactly `INF` / `-INF` / `NaN`. Deliberately narrower
/// than `str::parse::<f64>`, which also accepts Rust spellings like
/// `inf`, `Infinity`, `nan`, and `+NaN` that XSD excludes.
fn is_double(v: &str) -> bool {
    let v = v.trim_matches(is_xml_whitespace);
    matches!(v, "INF" | "-INF" | "NaN")
        || (v
            .bytes()
            .all(|b| matches!(b, b'0'..=b'9' | b'+' | b'-' | b'.' | b'e' | b'E'))
            && v.parse::<f64>().is_ok())
}

fn is_decimal(v: &str) -> bool {
    let v = v.trim_matches(is_xml_whitespace);
    let v = v.strip_prefix(['+', '-']).unwrap_or(v);
    if v.is_empty() || v == "." {
        return false;
    }
    let mut dots = 0;
    v.chars().all(|c| {
        if c == '.' {
            dots += 1;
            dots <= 1
        } else {
            c.is_ascii_digit()
        }
    })
}

fn is_date(v: &str) -> bool {
    let parts: Vec<&str> = v.splitn(3, '-').collect();
    // (Negative years would start with '-', out of scope.)
    parts.len() == 3
        && parts[0].len() == 4
        && parts.iter().all(|p| p.chars().all(|c| c.is_ascii_digit()))
        && parts[1].parse::<u32>().is_ok_and(|m| (1..=12).contains(&m))
        && parts[2].parse::<u32>().is_ok_and(|d| (1..=31).contains(&d))
}

fn is_time(v: &str) -> bool {
    let (hms, frac) = v.split_once('.').map_or((v, None), |(a, b)| (a, Some(b)));
    if let Some(f) = frac {
        if f.is_empty() || !f.chars().all(|c| c.is_ascii_digit()) {
            return false;
        }
    }
    let parts: Vec<&str> = hms.split(':').collect();
    parts.len() == 3
        && parts[0].parse::<u32>().is_ok_and(|h| h <= 23)
        && parts[1].parse::<u32>().is_ok_and(|m| m <= 59)
        && parts[2].parse::<u32>().is_ok_and(|s| s <= 60)
}

fn is_nmtoken(v: &str) -> bool {
    !v.is_empty()
        && v.chars()
            .all(|c| c.is_alphanumeric() || matches!(c, '.' | '-' | '_' | ':'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qname_resolution_roundtrip() {
        for t in [
            SimpleType::String,
            SimpleType::Integer,
            SimpleType::Date,
            SimpleType::Boolean,
            SimpleType::Decimal,
        ] {
            assert_eq!(SimpleType::from_qname(t.qname()), t);
        }
        assert_eq!(SimpleType::from_qname("xsd:string"), SimpleType::String);
        assert_eq!(SimpleType::from_qname("string"), SimpleType::String);
        assert_eq!(
            SimpleType::from_qname("xs:gYearMonth"),
            SimpleType::AnySimpleType
        );
    }

    #[test]
    fn integer_validation() {
        assert!(SimpleType::Integer.validates("42"));
        assert!(SimpleType::Integer.validates("-7"));
        assert!(!SimpleType::Integer.validates("4.2"));
        assert!(!SimpleType::Integer.validates("abc"));
        assert!(!SimpleType::Integer.validates(""));
        assert!(SimpleType::NonNegativeInteger.validates("0"));
        assert!(!SimpleType::NonNegativeInteger.validates("-1"));
        assert!(!SimpleType::PositiveInteger.validates("0"));
    }

    #[test]
    fn boolean_validation() {
        for v in ["true", "false", "1", "0"] {
            assert!(SimpleType::Boolean.validates(v));
        }
        assert!(!SimpleType::Boolean.validates("TRUE"));
        assert!(!SimpleType::Boolean.validates("yes"));
    }

    #[test]
    fn decimal_validation() {
        assert!(SimpleType::Decimal.validates("3.14"));
        assert!(SimpleType::Decimal.validates("-0.5"));
        assert!(SimpleType::Decimal.validates("42"));
        assert!(!SimpleType::Decimal.validates("3.1.4"));
        assert!(!SimpleType::Decimal.validates("."));
        assert!(!SimpleType::Decimal.validates("1e5"));
    }

    #[test]
    fn date_time_validation() {
        assert!(SimpleType::Date.validates("2015-05-31"));
        assert!(!SimpleType::Date.validates("2015-13-01"));
        assert!(!SimpleType::Date.validates("15-05-31"));
        assert!(SimpleType::Time.validates("09:30:00"));
        assert!(SimpleType::Time.validates("09:30:00.125"));
        assert!(!SimpleType::Time.validates("24:00:61"));
        assert!(SimpleType::DateTime.validates("2015-05-31T09:30:00"));
        assert!(!SimpleType::DateTime.validates("2015-05-31 09:30:00"));
    }

    #[test]
    fn nmtoken_validation() {
        assert!(SimpleType::NmToken.validates("some-token_1"));
        assert!(!SimpleType::NmToken.validates("two words"));
        assert!(!SimpleType::NmToken.validates(""));
    }

    #[test]
    fn string_accepts_anything() {
        assert!(SimpleType::String.validates(""));
        assert!(SimpleType::String.validates("anything at all & more"));
    }
}

#[cfg(test)]
mod facet_tests {
    use super::*;

    #[test]
    fn numeric_bounds() {
        let f = Facets {
            min_inclusive: Some("0".into()),
            max_inclusive: Some("100".into()),
            ..Facets::default()
        };
        assert!(f.validates(SimpleType::Integer, "0"));
        assert!(f.validates(SimpleType::Integer, "100"));
        assert!(f.validates(SimpleType::Integer, "42"));
        assert!(!f.validates(SimpleType::Integer, "-1"));
        assert!(!f.validates(SimpleType::Integer, "101"));
        // numeric, not lexicographic: "9" < "10"
        assert!(f.validates(SimpleType::Integer, "9"));
    }

    #[test]
    fn string_bounds_are_lexicographic() {
        let f = Facets {
            min_inclusive: Some("b".into()),
            max_inclusive: Some("d".into()),
            ..Facets::default()
        };
        assert!(f.validates(SimpleType::String, "c"));
        assert!(!f.validates(SimpleType::String, "a"));
        assert!(!f.validates(SimpleType::String, "e"));
    }

    #[test]
    fn lengths_and_enumeration() {
        let f = Facets {
            min_length: Some(2),
            max_length: Some(4),
            ..Facets::default()
        };
        assert!(!f.validates(SimpleType::String, "x"));
        assert!(f.validates(SimpleType::String, "xy"));
        assert!(!f.validates(SimpleType::String, "xyzzy"));

        let e = Facets {
            enumeration: vec!["alpha".into(), "beta".into()],
            ..Facets::default()
        };
        assert!(e.validates(SimpleType::String, "alpha"));
        assert!(!e.validates(SimpleType::String, "gamma"));
    }

    #[test]
    fn integer_bounds_compare_exactly_beyond_f64_precision() {
        // Regression: bounds used to round-trip through f64, where
        // 2^53 and 2^53 + 1 compare equal — a value below an exclusive
        // region slipped through.
        let f = Facets {
            min_inclusive: Some("9007199254740993".into()), // 2^53 + 1
            ..Facets::default()
        };
        assert!(!f.validates(SimpleType::Integer, "9007199254740992"));
        assert!(f.validates(SimpleType::Integer, "9007199254740993"));
        assert!(f.validates(SimpleType::Integer, "9007199254740994"));
    }

    #[test]
    fn decimal_bounds_compare_normalized_not_as_floats() {
        let f = Facets {
            min_inclusive: Some("0.1000".into()),
            max_inclusive: Some("10000000000000000.02".into()),
            ..Facets::default()
        };
        // trailing zeros are cosmetic
        assert!(f.validates(SimpleType::Decimal, "0.1"));
        assert!(!f.validates(SimpleType::Decimal, "0.09999999999999999999"));
        // f64 cannot tell these two apart; exact comparison must
        assert!(!f.validates(SimpleType::Decimal, "10000000000000000.03"));
        assert!(f.validates(SimpleType::Decimal, "10000000000000000.01"));
        // sign handling, including negative zero
        assert!(!f.validates(SimpleType::Decimal, "-0.2"));
        let neg = Facets {
            min_inclusive: Some("-3.5".into()),
            max_inclusive: Some("-0.0".into()),
            ..Facets::default()
        };
        assert!(neg.validates(SimpleType::Decimal, "-2.75"));
        assert!(neg.validates(SimpleType::Decimal, "0"));
        assert!(!neg.validates(SimpleType::Decimal, "0.001"));
        assert!(!neg.validates(SimpleType::Decimal, "-3.51"));
    }

    #[test]
    fn double_bounds_understand_xsd_infinities() {
        // Regression: "INF" failed the f64 parse and became NaN, so an
        // INF bound rejected (min) or admitted (max) arbitrarily.
        let f = Facets {
            min_inclusive: Some("-INF".into()),
            max_inclusive: Some("INF".into()),
            ..Facets::default()
        };
        assert!(f.validates(SimpleType::Double, "1e300"));
        assert!(f.validates(SimpleType::Double, "-INF"));
        assert!(f.validates(SimpleType::Double, "INF"));
        // NaN is incomparable: it fails any bound (closed), and a NaN
        // bound is a schema error.
        assert!(!f.validates(SimpleType::Double, "NaN"));
        let nan_bound = Facets {
            max_inclusive: Some("NaN".into()),
            ..Facets::default()
        };
        assert!(nan_bound.check(SimpleType::Double).is_err());
    }

    #[test]
    fn unparseable_bounds_fail_closed_and_fail_check() {
        // Regression: an unparseable bound compared as "greater than
        // everything", so `max "oops"` silently admitted every value.
        let f = Facets {
            max_inclusive: Some("oops".into()),
            ..Facets::default()
        };
        assert!(!f.validates(SimpleType::Integer, "1"));
        assert!(f.check(SimpleType::Integer).is_err());
        assert!(f.check(SimpleType::String).is_ok()); // fine lexicographically

        let inverted = Facets {
            min_inclusive: Some("10".into()),
            max_inclusive: Some("9".into()),
            ..Facets::default()
        };
        assert!(inverted.check(SimpleType::Integer).is_err());
        assert!(inverted.check(SimpleType::String).is_ok()); // "10" < "9"

        let lengths = Facets {
            min_length: Some(5),
            max_length: Some(2),
            ..Facets::default()
        };
        assert!(lengths.check(SimpleType::String).is_err());
        assert!(Facets::default().check(SimpleType::Integer).is_ok());
    }

    #[test]
    fn empty_facets_accept_everything() {
        let f = Facets::default();
        assert!(f.is_empty());
        assert!(f.validates(SimpleType::String, "anything"));
        assert!(f.validates(SimpleType::Integer, "-999"));
    }

    #[test]
    fn display_roundtrips_visually() {
        let f = Facets {
            min_inclusive: Some("0".into()),
            enumeration: vec!["a".into()],
            ..Facets::default()
        };
        let s = f.display();
        assert!(s.contains("min \"0\""));
        assert!(s.contains("enum \"a\""));
    }

    #[test]
    fn canonical_values_are_valid_and_deterministic() {
        let none = Facets::default();
        for t in [
            SimpleType::String,
            SimpleType::Boolean,
            SimpleType::Integer,
            SimpleType::NonNegativeInteger,
            SimpleType::PositiveInteger,
            SimpleType::Decimal,
            SimpleType::Double,
            SimpleType::Date,
            SimpleType::Time,
            SimpleType::DateTime,
            SimpleType::NmToken,
            SimpleType::Token,
        ] {
            let v = canonical_value(t, &none).expect("unrestricted type has a value");
            assert!(admits(t, &none, &v), "{t:?}: {v:?}");
            assert_eq!(canonical_value(t, &none), Some(v));
        }
        // Enumeration members win when valid.
        let f = Facets {
            enumeration: vec!["red".into(), "blue".into()],
            ..Facets::default()
        };
        assert_eq!(canonical_value(SimpleType::String, &f), Some("red".into()));
        // Facet bounds are honored.
        let f = Facets {
            min_inclusive: Some("17".into()),
            ..Facets::default()
        };
        let v = canonical_value(SimpleType::Integer, &f).unwrap();
        assert!(admits(SimpleType::Integer, &f, &v));
        // Contradictory restrictions yield no value.
        let f = Facets {
            enumeration: vec!["abc".into()],
            ..Facets::default()
        };
        assert_eq!(canonical_value(SimpleType::Integer, &f), None);
        let f = Facets {
            min_length: Some(5),
            max_length: Some(2),
            ..Facets::default()
        };
        assert_eq!(canonical_value(SimpleType::String, &f), None);
    }

    #[test]
    fn value_space_witnesses_split_differing_specs() {
        let none = Facets::default();
        // Identical specs (and same value class) → provably no witness.
        assert_eq!(
            value_space_witness((SimpleType::String, &none), (SimpleType::Token, &none)),
            None
        );
        // String \ Integer: a non-numeric probe.
        let w = value_space_witness((SimpleType::String, &none), (SimpleType::Integer, &none))
            .expect("strings exceed integers");
        assert!(admits(SimpleType::String, &none, &w));
        assert!(!admits(SimpleType::Integer, &none, &w));
        // Integer ⊆ Decimal lexically — no witness in that direction…
        assert_eq!(
            value_space_witness((SimpleType::Integer, &none), (SimpleType::Decimal, &none)),
            None
        );
        // …but Decimal \ Integer has one.
        assert!(
            value_space_witness((SimpleType::Decimal, &none), (SimpleType::Integer, &none))
                .is_some()
        );
        // Bound tightening: max 10 vs max 5 → a value in (5, 10].
        let wide = Facets {
            max_inclusive: Some("10".into()),
            ..Facets::default()
        };
        let narrow = Facets {
            max_inclusive: Some("5".into()),
            ..Facets::default()
        };
        let w = value_space_witness((SimpleType::Integer, &wide), (SimpleType::Integer, &narrow))
            .expect("loosened bound admits more");
        assert!(admits(SimpleType::Integer, &wide, &w));
        assert!(!admits(SimpleType::Integer, &narrow, &w));
        assert_eq!(
            value_space_witness((SimpleType::Integer, &narrow), (SimpleType::Integer, &wide)),
            None
        );
        // Enumeration widening.
        let two = Facets {
            enumeration: vec!["a".into(), "b".into()],
            ..Facets::default()
        };
        let one = Facets {
            enumeration: vec!["a".into()],
            ..Facets::default()
        };
        assert_eq!(
            value_space_witness((SimpleType::String, &two), (SimpleType::String, &one)),
            Some("b".into())
        );
        // Enumeration-escape probe: unrestricted vs enumerated.
        let w = value_space_witness((SimpleType::String, &none), (SimpleType::String, &one))
            .expect("enumeration restricts");
        assert!(!admits(SimpleType::String, &one, &w));
        // Length facets.
        let short = Facets {
            max_length: Some(3),
            ..Facets::default()
        };
        let w = value_space_witness((SimpleType::String, &none), (SimpleType::String, &short))
            .expect("length restricts");
        assert!(w.chars().count() > 3);
    }
}
