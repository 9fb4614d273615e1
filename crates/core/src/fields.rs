//! Shared JSON field accessors for the versioned on-disk schemas.
//!
//! Every persisted schema in this crate — checkpoints
//! ([`crate::checkpoint`]), per-cell sweep results ([`crate::results`])
//! — decodes through the same discipline: a missing or mistyped field
//! is a [`FaircrowdError::Persist`] naming the field, its expected
//! shape, and the context it sat in, never a panic. These helpers are
//! that discipline in one place, so the schemas cannot drift apart in
//! how they report corruption.

use faircrowd_model::error::FaircrowdError;
use faircrowd_model::json::Json;

pub(crate) fn require<'a>(
    json: &'a Json<'a>,
    key: &str,
    ctx: impl std::fmt::Display,
) -> Result<&'a Json<'a>, FaircrowdError> {
    json.get(key)
        .ok_or_else(|| FaircrowdError::persist(format!("{ctx}: missing field `{key}`")))
}

pub(crate) fn u64_field(
    json: &Json,
    key: &str,
    ctx: impl std::fmt::Display,
) -> Result<u64, FaircrowdError> {
    let v = require(json, key, &ctx)?;
    v.as_u64().ok_or_else(|| {
        FaircrowdError::persist(format!(
            "{ctx}: field `{key}` should be an unsigned integer, got {}",
            v.kind()
        ))
    })
}

pub(crate) fn i64_field(
    json: &Json,
    key: &str,
    ctx: impl std::fmt::Display,
) -> Result<i64, FaircrowdError> {
    let v = require(json, key, &ctx)?;
    v.as_i64().ok_or_else(|| {
        FaircrowdError::persist(format!(
            "{ctx}: field `{key}` should be an integer, got {}",
            v.kind()
        ))
    })
}

pub(crate) fn u32_field(
    json: &Json,
    key: &str,
    ctx: impl std::fmt::Display,
) -> Result<u32, FaircrowdError> {
    let v = u64_field(json, key, &ctx)?;
    u32::try_from(v)
        .map_err(|_| FaircrowdError::persist(format!("{ctx}: field `{key}` overflows an id")))
}

pub(crate) fn u32_value(json: &Json, ctx: impl std::fmt::Display) -> Result<u32, FaircrowdError> {
    json.as_u64()
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| FaircrowdError::persist(format!("{ctx}: value should be a 32-bit id")))
}

pub(crate) fn u64_pair(
    json: &Json,
    ctx: impl std::fmt::Display,
) -> Result<(u64, u64), FaircrowdError> {
    let arr = json
        .as_arr()
        .ok_or_else(|| FaircrowdError::persist(format!("{ctx}: pair is not an array")))?;
    match arr {
        [a, b] => Ok((
            a.as_u64().ok_or_else(|| {
                FaircrowdError::persist(format!("{ctx}: pair holds a non-integer"))
            })?,
            b.as_u64().ok_or_else(|| {
                FaircrowdError::persist(format!("{ctx}: pair holds a non-integer"))
            })?,
        )),
        _ => Err(FaircrowdError::persist(format!(
            "{ctx}: pair has {} element(s), expected 2",
            arr.len()
        ))),
    }
}

pub(crate) fn u32_pair(
    json: &Json,
    ctx: impl std::fmt::Display,
) -> Result<(u32, u32), FaircrowdError> {
    let (a, b) = u64_pair(json, &ctx)?;
    match (u32::try_from(a), u32::try_from(b)) {
        (Ok(a), Ok(b)) => Ok((a, b)),
        _ => Err(FaircrowdError::persist(format!(
            "{ctx}: pair member overflows an id"
        ))),
    }
}

pub(crate) fn f64_field(
    json: &Json,
    key: &str,
    ctx: impl std::fmt::Display,
) -> Result<f64, FaircrowdError> {
    let v = require(json, key, &ctx)?;
    v.as_f64().ok_or_else(|| {
        FaircrowdError::persist(format!(
            "{ctx}: field `{key}` should be a number, got {}",
            v.kind()
        ))
    })
}

pub(crate) fn bool_field(
    json: &Json,
    key: &str,
    ctx: impl std::fmt::Display,
) -> Result<bool, FaircrowdError> {
    let v = require(json, key, &ctx)?;
    v.as_bool().ok_or_else(|| {
        FaircrowdError::persist(format!(
            "{ctx}: field `{key}` should be a boolean, got {}",
            v.kind()
        ))
    })
}

pub(crate) fn str_field<'a>(
    json: &'a Json,
    key: &str,
    ctx: impl std::fmt::Display,
) -> Result<&'a str, FaircrowdError> {
    let v = require(json, key, &ctx)?;
    v.as_str().ok_or_else(|| {
        FaircrowdError::persist(format!(
            "{ctx}: field `{key}` should be a string, got {}",
            v.kind()
        ))
    })
}

pub(crate) fn arr_field<'a>(
    json: &'a Json<'a>,
    key: &str,
    ctx: impl std::fmt::Display,
) -> Result<&'a [Json<'a>], FaircrowdError> {
    let v = require(json, key, &ctx)?;
    v.as_arr().ok_or_else(|| {
        FaircrowdError::persist(format!(
            "{ctx}: field `{key}` should be an array, got {}",
            v.kind()
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_name_field_context_and_kind() {
        let json = Json::parse(r#"{"a": 1, "b": "x", "c": [1, 2], "d": true, "e": 1.5}"#).unwrap();
        assert_eq!(u64_field(&json, "a", "ctx").unwrap(), 1);
        assert_eq!(i64_field(&json, "a", "ctx").unwrap(), 1);
        assert_eq!(u32_field(&json, "a", "ctx").unwrap(), 1);
        assert_eq!(str_field(&json, "b", "ctx").unwrap(), "x");
        assert_eq!(arr_field(&json, "c", "ctx").unwrap().len(), 2);
        assert!(bool_field(&json, "d", "ctx").unwrap());
        assert_eq!(f64_field(&json, "e", "ctx").unwrap(), 1.5);
        let err = u64_field(&json, "missing", "my context").unwrap_err();
        assert!(err.to_string().contains("my context"), "{err}");
        assert!(err.to_string().contains("`missing`"), "{err}");
        let err = u64_field(&json, "b", "ctx").unwrap_err();
        assert!(err.to_string().contains("unsigned integer"), "{err}");
        assert!(err.to_string().contains("string"), "{err}");
        let err = u64_pair(json.get("b").unwrap(), "ctx").unwrap_err();
        assert!(err.to_string().contains("not an array"), "{err}");
        assert_eq!(u64_pair(json.get("c").unwrap(), "ctx").unwrap(), (1, 2));
        assert_eq!(u32_pair(json.get("c").unwrap(), "ctx").unwrap(), (1, 2));
        assert_eq!(u32_value(json.get("a").unwrap(), "ctx").unwrap(), 1);
    }
}
