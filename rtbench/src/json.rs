//! The little JSON the benchmark needs beyond `rtft_obs::json`'s writer:
//! full-precision numbers out, and a reader for its own result files and
//! `BENCHMARK.json` (the workspace has no external crates).

use std::collections::BTreeMap;

/// A number as measured, with all its digits (shortest form that reads
/// back to the same `f64`).
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric value is not finite");
    format!("{v}")
}

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Parses one JSON document; `Err` carries the byte offset of the fault.
pub fn parse(text: &str) -> Result<Json, usize> {
    let mut p = Parser {
        s: text.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.at != p.s.len() {
        return Err(p.at);
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.at).is_some_and(|b| b.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), usize> {
        if self.s[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(())
        } else {
            Err(self.at)
        }
    }

    fn value(&mut self) -> Result<Json, usize> {
        self.ws();
        match self.s.get(self.at).ok_or(self.at)? {
            b'{' => {
                self.at += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(m));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.ws();
                    self.eat(":")?;
                    m.insert(k, self.value()?);
                    self.ws();
                    if self.eat(",").is_err() {
                        self.eat("}")?;
                        return Ok(Json::Obj(m));
                    }
                }
            }
            b'[' => {
                self.at += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(a));
                }
                loop {
                    a.push(self.value()?);
                    self.ws();
                    if self.eat(",").is_err() {
                        self.eat("]")?;
                        return Ok(Json::Arr(a));
                    }
                }
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.eat("true").map(|()| Json::Bool(true)),
            b'f' => self.eat("false").map(|()| Json::Bool(false)),
            b'n' => self.eat("null").map(|()| Json::Null),
            _ => {
                let start = self.at;
                while self
                    .s
                    .get(self.at)
                    .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.s[start..self.at])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or(start)
            }
        }
    }

    fn string(&mut self) -> Result<String, usize> {
        self.eat("\"")?;
        let mut out = Vec::new();
        loop {
            match *self.s.get(self.at).ok_or(self.at)? {
                b'"' => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|_| self.at);
                }
                b'\\' => {
                    let c = *self.s.get(self.at + 1).ok_or(self.at)?;
                    self.at += 2;
                    match c {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self.s.get(self.at..self.at + 4).ok_or(self.at)?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or(self.at)?;
                            self.at += 4;
                            out.extend_from_slice(code.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                b => {
                    out.push(b);
                    self.at += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_back_a_result_line() {
        let line = r#"{"correct": true, "attempted": 10, "failed": 0,
            "metrics": {"op_p50_ms": {"value": 44.0625, "unit": "ms"}}, "tags": ["a\"b", null]}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let m = v.get("metrics").unwrap().get("op_p50_ms").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(44.0625));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ms"));
        assert_eq!(
            v.get("tags").unwrap().as_arr().unwrap()[0].as_str(),
            Some("a\"b")
        );
        assert!(parse("{\"a\": 1} x").is_err());
    }

    #[test]
    fn numbers_keep_their_digits() {
        let v = 1.203_456_789_012_345_6_f64;
        assert_eq!(number(v).parse::<f64>().unwrap(), v);
    }
}
