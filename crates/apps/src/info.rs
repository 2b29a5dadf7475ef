//! A compact typed schema for pointer attached-info (§3).
//!
//! "Some applications need to exchange some brief information among the
//! nodes. They can directly attach the information into the pointers":
//! GUESS attaches shared-file counts, backup systems attach OS versions,
//! bidding systems attach storage/bandwidth/price. [`InfoMap`] gives those
//! applications a tiny key-value encoding with a canonical byte form —
//! pointers must stay small ("large pointers will finally deflate the
//! peer lists"), so values are length-limited and the encoder is
//! deliberately simple: sorted keys, TLV fields, no compression.
//!
//! Wire form per field: `key_len:u8 key value_tag:u8 value`, fields sorted
//! by key; values are `u64`, `f64`, or short byte strings.

use bytes::Bytes;
use std::collections::BTreeMap;

/// Maximum encoded size accepted (keeps pointers small; 512 bytes is
/// already 4× the paper's whole event message).
pub const MAX_ENCODED: usize = 512;

/// A typed value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned counter (file counts, free megabytes, …).
    U64(u64),
    /// Floating measurement (load, price, availability …).
    F64(f64),
    /// Short opaque string (OS tag, version, …), ≤ 255 bytes.
    Str(String),
}

/// Decode errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InfoError {
    /// Input ended mid-field.
    Truncated,
    /// Unknown value tag.
    BadTag(u8),
    /// A string field was not UTF-8.
    BadUtf8,
    /// Encoded form exceeds [`MAX_ENCODED`].
    TooLarge,
}

/// An ordered key-value map with a canonical byte encoding.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct InfoMap {
    fields: BTreeMap<String, Value>,
}

impl InfoMap {
    /// Empty map.
    pub const fn new() -> Self {
        InfoMap {
            fields: BTreeMap::new(),
        }
    }

    /// Sets a counter field.
    pub fn set_u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.fields.insert(key.to_string(), Value::U64(v));
        self
    }

    /// Sets a float field.
    pub fn set_f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.fields.insert(key.to_string(), Value::F64(v));
        self
    }

    /// Sets a string field (truncated to 255 bytes).
    pub fn set_str(&mut self, key: &str, v: &str) -> &mut Self {
        let mut s = v.to_string();
        s.truncate(255);
        self.fields.insert(key.to_string(), Value::Str(s));
        self
    }

    /// Reads a counter field.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        match self.fields.get(key) {
            Some(Value::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Reads a float field.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        match self.fields.get(key) {
            Some(Value::F64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Reads a string field.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.fields.get(key) {
            Some(Value::Str(v)) => Some(v),
            _ => None,
        }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterates fields in canonical (key) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> + '_ {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Canonical encoding, suitable for a pointer's attached info.
    ///
    /// # Errors
    /// [`InfoError::TooLarge`] when the encoding exceeds [`MAX_ENCODED`].
    pub fn encode(&self) -> Result<Bytes, InfoError> {
        let mut out = Vec::with_capacity(64);
        for (k, v) in &self.fields {
            let kb = k.as_bytes();
            let klen = kb.len().min(255);
            out.push(klen as u8);
            out.extend_from_slice(&kb[..klen]);
            match v {
                Value::U64(x) => {
                    out.push(0);
                    out.extend_from_slice(&x.to_le_bytes());
                }
                Value::F64(x) => {
                    out.push(1);
                    out.extend_from_slice(&x.to_le_bytes());
                }
                Value::Str(s) => {
                    out.push(2);
                    out.push(s.len() as u8);
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
        if out.len() > MAX_ENCODED {
            return Err(InfoError::TooLarge);
        }
        Ok(Bytes::from(out))
    }

    /// Decodes a canonical encoding. Never panics on malformed input.
    pub fn decode(buf: &[u8]) -> Result<InfoMap, InfoError> {
        if buf.len() > MAX_ENCODED {
            return Err(InfoError::TooLarge);
        }
        let mut fields = BTreeMap::new();
        let mut i = 0usize;
        let take = |i: &mut usize, n: usize| -> Result<usize, InfoError> {
            let start = *i;
            if buf.len() - start < n {
                return Err(InfoError::Truncated);
            }
            *i += n;
            Ok(start)
        };
        while i < buf.len() {
            let klen = buf[take(&mut i, 1)?] as usize;
            let ks = take(&mut i, klen)?;
            let key = std::str::from_utf8(&buf[ks..ks + klen])
                .map_err(|_| InfoError::BadUtf8)?
                .to_string();
            let tag = buf[take(&mut i, 1)?];
            let value = match tag {
                0 => {
                    let s = take(&mut i, 8)?;
                    Value::U64(u64::from_le_bytes(buf[s..s + 8].try_into().unwrap()))
                }
                1 => {
                    let s = take(&mut i, 8)?;
                    Value::F64(f64::from_le_bytes(buf[s..s + 8].try_into().unwrap()))
                }
                2 => {
                    let slen = buf[take(&mut i, 1)?] as usize;
                    let s = take(&mut i, slen)?;
                    Value::Str(
                        std::str::from_utf8(&buf[s..s + slen])
                            .map_err(|_| InfoError::BadUtf8)?
                            .to_string(),
                    )
                }
                t => return Err(InfoError::BadTag(t)),
            };
            fields.insert(key, value);
        }
        Ok(InfoMap { fields })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_typed_fields() {
        let mut m = InfoMap::new();
        m.set_u64("files", 1234)
            .set_f64("load", 0.75)
            .set_str("os", "linux-6.1");
        let b = m.encode().unwrap();
        let d = InfoMap::decode(&b).unwrap();
        assert_eq!(d, m);
        assert_eq!(d.get_u64("files"), Some(1234));
        assert_eq!(d.get_f64("load"), Some(0.75));
        assert_eq!(d.get_str("os"), Some("linux-6.1"));
        assert_eq!(d.get_u64("load"), None, "typed getters are type-safe");
    }

    #[test]
    fn encoding_is_canonical_regardless_of_insertion_order() {
        let mut a = InfoMap::new();
        a.set_u64("b", 1).set_u64("a", 2);
        let mut b = InfoMap::new();
        b.set_u64("a", 2).set_u64("b", 1);
        assert_eq!(a.encode().unwrap(), b.encode().unwrap());
    }

    #[test]
    fn size_limit_enforced() {
        let mut m = InfoMap::new();
        for i in 0..60 {
            m.set_str(&format!("key-{i}"), "0123456789");
        }
        assert_eq!(m.encode(), Err(InfoError::TooLarge));
    }

    #[test]
    fn decode_rejects_garbage_without_panicking() {
        assert!(InfoMap::decode(&[5]).is_err()); // truncated key
        assert!(InfoMap::decode(&[1, b'k', 9]).is_err()); // bad tag
        assert!(InfoMap::decode(&[1, 0xFF, 0]).is_err()); // bad utf8 key
        assert_eq!(InfoMap::decode(&[]).unwrap(), InfoMap::new());
    }

    proptest! {
        #[test]
        fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = InfoMap::decode(&data);
        }

        #[test]
        fn arbitrary_maps_roundtrip(
            keys in proptest::collection::vec("[a-z]{1,8}", 0..8),
            vals in proptest::collection::vec(any::<u64>(), 8),
        ) {
            let mut m = InfoMap::new();
            for (k, v) in keys.iter().zip(&vals) {
                m.set_u64(k, *v);
            }
            let b = m.encode().unwrap();
            prop_assert_eq!(InfoMap::decode(&b).unwrap(), m);
        }
    }
}
