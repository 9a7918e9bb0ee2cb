//! Differential oracle for the streaming encoder: on seeded inputs,
//! `to_string(x)` (which calls `ToJson::write_json`) must produce
//! exactly the bytes of `x.to_json().to_text()` (the tree encoder), and
//! numbers and strings must also match an independent reference
//! formatter written the slow, obvious way.

use std::collections::BTreeMap;

use icm_json::{impl_json, to_string, Json, ObjectWriter, ToJson};

/// SplitMix64: a tiny seeded generator, so this crate's tests need no
/// dependency.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// Asserts the streamed text equals the tree encoder's and returns it.
#[track_caller]
fn oracle<T: ToJson + ?Sized>(value: &T) -> String {
    let streamed = to_string(value);
    let tree = value.to_json().to_text();
    assert_eq!(
        streamed, tree,
        "streamed text diverged from the tree encoder"
    );
    streamed
}

/// The number encoder as first written: `Display` of the value with
/// negative zero folded into zero, `null` for non-finite values.
fn reference_number(n: f64) -> String {
    if n.is_finite() {
        let n = if n == 0.0 { 0.0 } else { n };
        format!("{n}")
    } else {
        "null".to_owned()
    }
}

/// The string encoder as first written: one `char` at a time.
fn reference_string(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53

fn edge_numbers() -> Vec<f64> {
    vec![
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        EXACT - 1.0,
        EXACT,
        EXACT + 2.0,
        -(EXACT - 1.0),
        -EXACT,
        -(EXACT + 2.0),
        1e21,
        -1e21,
        1e22,
        1e-7,
        -1e-7,
        1e-6,
        0.1,
        1.0 / 3.0,
        123_456.789,
        -2.5,
        4_503_599_627_370_495.5,
        u64::MAX as f64,
        i64::MIN as f64,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ]
}

#[test]
fn numbers_match_the_tree_and_the_reference() {
    let mut rng = SplitMix(0x0AC1_E5EE_D001);
    let mut values = edge_numbers();
    for _ in 0..50_000 {
        values.push(f64::from_bits(rng.next()));
    }
    // Integral values of every magnitude, where the `i64` path applies
    // and just past where it stops.
    for _ in 0..20_000 {
        let magnitude = rng.below(64) as i32;
        let v = (rng.next() >> (63 - magnitude.min(62))) as f64;
        values.push(if rng.coin() { -v } else { v });
    }
    for &v in &values {
        assert_eq!(
            oracle(&v),
            reference_number(v),
            "f64 bits {:#018x}",
            v.to_bits()
        );
        assert_eq!(oracle(&Some(v)), reference_number(v), "Some({v:?})");
        let single = v as f32;
        assert_eq!(
            oracle(&single),
            reference_number(f64::from(single)),
            "f32 {single:?}"
        );
    }
    assert_eq!(oracle(&None::<f64>), "null");
    assert_eq!(oracle(&-0.0f64), "0");
    assert_eq!(oracle(&1e21f64), "1000000000000000000000");
    assert_eq!(oracle(&1e-7f64), "0.0000001");
    assert_eq!(oracle(&(EXACT + 2.0)), "9007199254740994");
}

#[test]
fn integers_match_the_tree_encoder() {
    let mut rng = SplitMix(7);
    for _ in 0..20_000 {
        let bits = rng.next();
        let shift = rng.below(64) as u32;
        let u = bits >> shift;
        oracle(&u);
        oracle(&(u as i64));
        oracle(&(u as usize));
        oracle(&(u as u32));
        oracle(&(u as i32));
        oracle(&(u as u16));
        oracle(&(u as i8));
    }
    for v in [
        u64::MAX,
        u64::MAX - 1,
        (1 << 53) + 1,
        1 << 53,
        (1 << 53) - 1,
        0,
    ] {
        oracle(&v);
    }
    for v in [i64::MIN, i64::MAX, -(1 << 53) - 1, -(1 << 53), -1] {
        oracle(&v);
    }
}

fn random_string(rng: &mut SplitMix) -> String {
    const ALPHABET: &str =
        "aZ0 \"\\/\n\r\t\u{0}\u{08}\u{0C}\u{1F}\u{7F}é\u{2028}\u{2029}🦀\u{10FFFF}\u{FFFD}";
    let alphabet: Vec<char> = ALPHABET.chars().collect();
    let len = rng.below(24) as usize;
    (0..len)
        .map(|_| {
            if rng.below(4) == 0 {
                char::from_u32(rng.below(0x20) as u32).expect("control char")
            } else {
                alphabet[rng.below(alphabet.len() as u64) as usize]
            }
        })
        .collect()
}

#[test]
fn strings_match_the_tree_and_the_reference() {
    let mut rng = SplitMix(0x5742_1265);
    let mut strings: Vec<String> = vec![
        String::new(),
        "plain ascii with nothing to escape".to_owned(),
        "\"".to_owned(),
        "\\".to_owned(),
        "ends with escape\n".to_owned(),
        "\u{0}\u{1}\u{1F}".to_owned(),
        "line\u{2028}separator\u{2029}".to_owned(),
        "astral 🦀🦀 and é".to_owned(),
    ];
    for _ in 0..20_000 {
        strings.push(random_string(&mut rng));
    }
    for s in &strings {
        let want = reference_string(s);
        assert_eq!(oracle(s), want, "String {s:?}");
        assert_eq!(oracle(s.as_str()), want, "str {s:?}");
        assert_eq!(oracle(&Some(s.clone())), want, "Some({s:?})");
        let back: String = icm_json::from_str(&want).expect("parses back");
        assert_eq!(&back, s);
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    Fast,
    Thorough,
}
impl_json!(
    enum Mode {
        Fast,
        Thorough,
    }
);

#[derive(Debug, Clone, PartialEq)]
struct Inner {
    label: String,
    weight: f64,
    mode: Mode,
}
impl_json!(struct Inner { label, weight, mode });

#[derive(Debug, Clone, PartialEq)]
struct Outer {
    id: u64,
    inner: Inner,
    maybe: Option<Inner>,
    points: Vec<(usize, f64)>,
    triples: Vec<(String, Option<bool>, i32)>,
    table: BTreeMap<String, Vec<Option<f64>>>,
    fixed: [f32; 3],
    raw: Json,
}
impl_json!(struct Outer { id, inner, maybe, points, triples, table, fixed, raw });

fn random_number(rng: &mut SplitMix) -> f64 {
    match rng.below(4) {
        0 => f64::from_bits(rng.next()),
        1 => rng.below(1000) as f64,
        2 => (rng.below(2_000_001) as f64 - 1_000_000.0) / 1024.0,
        _ => edge_numbers()[rng.below(edge_numbers().len() as u64) as usize],
    }
}

fn random_inner(rng: &mut SplitMix) -> Inner {
    Inner {
        label: random_string(rng),
        weight: random_number(rng),
        mode: if rng.coin() {
            Mode::Fast
        } else {
            Mode::Thorough
        },
    }
}

fn random_json(rng: &mut SplitMix, depth: u32) -> Json {
    let pick = if depth == 0 {
        rng.below(4)
    } else {
        rng.below(6)
    };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rng.coin()),
        // A tree may hold any f64; the writer maps non-finite to null.
        2 => Json::Number(random_number(rng)),
        3 => Json::String(random_string(rng)),
        4 => Json::Array(
            (0..rng.below(4))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Object(
            (0..rng.below(4))
                .map(|_| (random_string(rng), random_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn random_outer(rng: &mut SplitMix) -> Outer {
    let opt = |rng: &mut SplitMix| match rng.below(3) {
        0 => None,
        1 => Some(rng.coin()),
        _ => Some(false),
    };
    Outer {
        id: rng.next() >> rng.below(64),
        inner: random_inner(rng),
        maybe: rng.coin().then(|| random_inner(rng)),
        points: (0..rng.below(5))
            .map(|_| (rng.below(100) as usize, random_number(rng)))
            .collect(),
        triples: (0..rng.below(4))
            .map(|_| (random_string(rng), opt(rng), rng.next() as i32))
            .collect(),
        table: (0..rng.below(4))
            .map(|_| {
                let cells = (0..rng.below(4))
                    .map(|_| rng.coin().then(|| random_number(rng)))
                    .collect();
                (random_string(rng), cells)
            })
            .collect(),
        fixed: [
            random_number(rng) as f32,
            random_number(rng) as f32,
            random_number(rng) as f32,
        ],
        raw: random_json(rng, 3),
    }
}

#[test]
fn nested_containers_and_generated_impls_match_the_tree_encoder() {
    let mut rng = SplitMix(2016);
    for _ in 0..3_000 {
        let outer = random_outer(&mut rng);
        oracle(&outer);
        oracle(&Some(outer.clone()));
        oracle(&vec![outer.clone(), outer.clone()]);
        oracle(&(outer.inner.clone(), outer.maybe.clone()));
        oracle(&outer.raw);
        oracle(&[Some(outer.inner.mode.clone()), None]);
        let nested: BTreeMap<String, (Vec<Option<Inner>>, Mode)> = (0..rng.below(3))
            .map(|_| {
                let items = vec![Some(random_inner(&mut rng)), None];
                (random_string(&mut rng), (items, Mode::Fast))
            })
            .collect();
        oracle(&nested);
    }
    let empty: Vec<Vec<f64>> = vec![vec![], vec![]];
    assert_eq!(oracle(&empty), "[[],[]]");
    assert_eq!(oracle(&BTreeMap::<String, u8>::new()), "{}");
    assert_eq!(oracle(&Json::Object(vec![])), "{}");
}

#[test]
fn object_writer_matches_json_object() {
    let mut rng = SplitMix(99);
    for _ in 0..2_000 {
        let pairs: Vec<(String, Json)> = (0..rng.below(5))
            .map(|_| (random_string(&mut rng), random_json(&mut rng, 2)))
            .collect();
        let mut streamed = String::new();
        let mut object = ObjectWriter::new(&mut streamed);
        for (k, v) in &pairs {
            object.field(k, v);
        }
        object.finish();
        assert_eq!(streamed, Json::Object(pairs).to_text());
    }
}
