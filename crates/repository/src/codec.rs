//! A compact, self-contained binary codec for repository snapshots.
//!
//! Hand-rolled (no external serialization format is available in the
//! dependency budget): length-prefixed, little-endian, with one-byte tags
//! for enums. Every encodable type has a matching decoder; round-trip
//! property tests live at the bottom of the module.

use bytes::{BufMut, Bytes, BytesMut};
use mm_expr::{
    AggFunc, AggSpec, Atom, CmpOp, Correspondence, CorrespondenceSet, Expr, Func, Lit, Mapping,
    MappingConstraint, PathRef, Predicate, Scalar, SoClause, SoTgd, Term, Tgd, ViewDef,
    ViewSet,
};
use mm_instance::{Database, RelSchema, Relation, Tuple, Value};
use mm_metamodel::{
    Attribute, Cardinality, Constraint, DataType, Element, ElementKind, ForeignKey,
    InclusionDependency, Key, Schema,
};
use std::fmt;

/// Decoding error: the snapshot is truncated or contains an unknown tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

pub type DecodeResult<T> = Result<T, DecodeError>;

/// CRC32 (IEEE 802.3, reflected) slicing-by-16 lookup tables, built at
/// compile time. Table 0 is the classic one-byte table; table `j`
/// advances table `j - 1` past one more zero byte, so sixteen input
/// bytes fold into the running value in one step.
const CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut j = 0;
    while j < 16 {
        let mut i = 0;
        while i < 256 {
            tables[j][i] = if j == 0 {
                let mut c = i as u32;
                let mut k = 0;
                while k < 8 {
                    c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                    k += 1;
                }
                c
            } else {
                let prev = tables[j - 1][i];
                (prev >> 8) ^ tables[0][(prev & 0xFF) as usize]
            };
            i += 1;
        }
        j += 1;
    }
    tables
};

/// CRC32 (IEEE) checksum — guards every WAL frame, snapshot body and
/// wire frame against torn writes and bit rot. Hand-rolled because no
/// checksum crate is in the dependency budget; sixteen bytes per step
/// because a wire round trip checksums its payload four times.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let byte = |word: u32, shift: u32| ((word >> shift) & 0xFF) as usize;
    let mut c = 0xFFFF_FFFFu32;
    let (blocks, tail) = bytes.as_chunks::<16>();
    for b in blocks {
        let w0 = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) ^ c;
        let w1 = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        let w2 = u32::from_le_bytes([b[8], b[9], b[10], b[11]]);
        let w3 = u32::from_le_bytes([b[12], b[13], b[14], b[15]]);
        c = t[15][byte(w0, 0)] ^ t[14][byte(w0, 8)] ^ t[13][byte(w0, 16)] ^ t[12][byte(w0, 24)]
            ^ t[11][byte(w1, 0)] ^ t[10][byte(w1, 8)] ^ t[9][byte(w1, 16)] ^ t[8][byte(w1, 24)]
            ^ t[7][byte(w2, 0)] ^ t[6][byte(w2, 8)] ^ t[5][byte(w2, 16)] ^ t[4][byte(w2, 24)]
            ^ t[3][byte(w3, 0)] ^ t[2][byte(w3, 8)] ^ t[1][byte(w3, 16)] ^ t[0][byte(w3, 24)];
    }
    for &b in tail {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Byte writer.
pub struct Writer {
    buf: BytesMut,
}

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

impl Writer {
    pub fn new() -> Self {
        Writer { buf: BytesMut::with_capacity(4096) }
    }

    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.put_i64_le(v);
    }

    pub fn i32(&mut self, v: i32) {
        self.buf.put_i32_le(v);
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.put_u8(v as u8);
    }

    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.put_slice(s.as_bytes());
    }

    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.u32(items.len() as u32);
        for it in items {
            f(self, it);
        }
    }
}

/// How many of `n` announced elements of type `T` a decoder may reserve
/// room for up front when `remaining` input bytes are left: at most as
/// many bytes as the input still holds, whatever the length prefix says
/// and however much wider than its encoding `T` is in memory. The `Vec`
/// grows normally past the bound, so honest input only ever pays a
/// regrowth.
fn reserve_bound<T>(n: usize, remaining: usize) -> usize {
    n.min(remaining / std::mem::size_of::<T>().max(1))
}

/// Byte reader: a cursor over a shared buffer. Every read is bounds-
/// checked against the remaining input and fails with a typed
/// `truncated` error, never a panic.
pub struct Reader {
    buf: Bytes,
    pos: usize,
}

impl Reader {
    pub fn new(buf: Bytes) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Input bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn fixed<const N: usize>(&mut self) -> DecodeResult<[u8; N]> {
        match self.buf[self.pos..].first_chunk::<N>() {
            Some(bytes) => {
                self.pos += N;
                Ok(*bytes)
            }
            None => Err(DecodeError(format!("truncated: need {N}, have {}", self.remaining()))),
        }
    }

    pub fn u8(&mut self) -> DecodeResult<u8> {
        self.fixed::<1>().map(|[b]| b)
    }

    pub fn u32(&mut self) -> DecodeResult<u32> {
        self.fixed().map(u32::from_le_bytes)
    }

    pub fn u64(&mut self) -> DecodeResult<u64> {
        self.fixed().map(u64::from_le_bytes)
    }

    pub fn i64(&mut self) -> DecodeResult<i64> {
        self.fixed().map(i64::from_le_bytes)
    }

    pub fn i32(&mut self) -> DecodeResult<i32> {
        self.fixed().map(i32::from_le_bytes)
    }

    pub fn f64(&mut self) -> DecodeResult<f64> {
        self.fixed().map(f64::from_le_bytes)
    }

    pub fn bool(&mut self) -> DecodeResult<bool> {
        Ok(self.u8()? != 0)
    }

    /// A length-prefixed string borrowed from the buffer, UTF-8 validated
    /// in place — for callers that do not keep the `String` (interning).
    pub(crate) fn str_ref(&mut self) -> DecodeResult<&str> {
        let n = self.seq_len()?;
        let start = self.pos;
        self.pos += n;
        std::str::from_utf8(&self.buf[start..self.pos]).map_err(|e| DecodeError(e.to_string()))
    }

    pub fn str(&mut self) -> DecodeResult<String> {
        self.str_ref().map(str::to_owned)
    }

    /// Read a `u32` length prefix, bounded by the remaining buffer —
    /// element encodings take at least one byte, so any honest length
    /// fits. This bounds the *count* only; what a decoder reserves for
    /// that count goes through `reserve_bound`, which bounds the bytes.
    pub(crate) fn seq_len(&mut self) -> DecodeResult<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(DecodeError(format!(
                "length {n} exceeds remaining buffer ({})",
                self.remaining()
            )));
        }
        Ok(n)
    }

    pub fn seq<T>(&mut self, mut f: impl FnMut(&mut Self) -> DecodeResult<T>) -> DecodeResult<Vec<T>> {
        let n = self.seq_len()?;
        let mut out = Vec::with_capacity(reserve_bound::<T>(n, self.remaining()));
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

/// Types encodable into a snapshot.
pub trait Encode {
    fn encode(&self, w: &mut Writer);
}

/// Types decodable from a snapshot.
pub trait Decode: Sized {
    fn decode(r: &mut Reader) -> DecodeResult<Self>;
}

fn bad_tag(what: &str, tag: u8) -> DecodeError {
    DecodeError(format!("unknown {what} tag {tag}"))
}

// --- metamodel ------------------------------------------------------------

impl Encode for DataType {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            DataType::Int => 0,
            DataType::Double => 1,
            DataType::Bool => 2,
            DataType::Text => 3,
            DataType::Date => 4,
            DataType::Any => 5,
        });
    }
}

impl Decode for DataType {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => DataType::Int,
            1 => DataType::Double,
            2 => DataType::Bool,
            3 => DataType::Text,
            4 => DataType::Date,
            5 => DataType::Any,
            t => return Err(bad_tag("DataType", t)),
        })
    }
}

impl Encode for Attribute {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.name);
        self.ty.encode(w);
        w.bool(self.nullable);
    }
}

impl Decode for Attribute {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(Attribute {
            name: r.str()?,
            ty: DataType::decode(r)?,
            nullable: r.bool()?,
        })
    }
}

impl Encode for Cardinality {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            Cardinality::One => 0,
            Cardinality::ZeroOrOne => 1,
            Cardinality::Many => 2,
        });
    }
}

impl Decode for Cardinality {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => Cardinality::One,
            1 => Cardinality::ZeroOrOne,
            2 => Cardinality::Many,
            t => return Err(bad_tag("Cardinality", t)),
        })
    }
}

impl Encode for ElementKind {
    fn encode(&self, w: &mut Writer) {
        match self {
            ElementKind::Relation => w.u8(0),
            ElementKind::EntityType { parent } => {
                w.u8(1);
                match parent {
                    Some(p) => {
                        w.bool(true);
                        w.str(p);
                    }
                    None => w.bool(false),
                }
            }
            ElementKind::Association { from, to, from_card, to_card } => {
                w.u8(2);
                w.str(from);
                w.str(to);
                from_card.encode(w);
                to_card.encode(w);
            }
            ElementKind::Nested { parent } => {
                w.u8(3);
                w.str(parent);
            }
        }
    }
}

impl Decode for ElementKind {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => ElementKind::Relation,
            1 => {
                let parent = if r.bool()? { Some(r.str()?) } else { None };
                ElementKind::EntityType { parent }
            }
            2 => ElementKind::Association {
                from: r.str()?,
                to: r.str()?,
                from_card: Cardinality::decode(r)?,
                to_card: Cardinality::decode(r)?,
            },
            3 => ElementKind::Nested { parent: r.str()? },
            t => return Err(bad_tag("ElementKind", t)),
        })
    }
}

impl Encode for Constraint {
    fn encode(&self, w: &mut Writer) {
        match self {
            Constraint::Key(k) => {
                w.u8(0);
                w.str(&k.element);
                w.seq(&k.attributes, |w, a| w.str(a));
            }
            Constraint::ForeignKey(fk) => {
                w.u8(1);
                w.str(&fk.from);
                w.seq(&fk.from_attrs, |w, a| w.str(a));
                w.str(&fk.to);
                w.seq(&fk.to_attrs, |w, a| w.str(a));
            }
            Constraint::Inclusion(i) => {
                w.u8(2);
                w.str(&i.from);
                w.seq(&i.from_attrs, |w, a| w.str(a));
                w.str(&i.to);
                w.seq(&i.to_attrs, |w, a| w.str(a));
            }
            Constraint::Disjoint { left, right } => {
                w.u8(3);
                w.str(left);
                w.str(right);
            }
            Constraint::Covering { parent, children } => {
                w.u8(4);
                w.str(parent);
                w.seq(children, |w, c| w.str(c));
            }
            Constraint::NotNull { element, attribute } => {
                w.u8(5);
                w.str(element);
                w.str(attribute);
            }
        }
    }
}

impl Decode for Constraint {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => Constraint::Key(Key {
                element: r.str()?,
                attributes: r.seq(Reader::str)?,
            }),
            1 => Constraint::ForeignKey(ForeignKey {
                from: r.str()?,
                from_attrs: r.seq(Reader::str)?,
                to: r.str()?,
                to_attrs: r.seq(Reader::str)?,
            }),
            2 => Constraint::Inclusion(InclusionDependency {
                from: r.str()?,
                from_attrs: r.seq(Reader::str)?,
                to: r.str()?,
                to_attrs: r.seq(Reader::str)?,
            }),
            3 => Constraint::Disjoint { left: r.str()?, right: r.str()? },
            4 => Constraint::Covering {
                parent: r.str()?,
                children: r.seq(Reader::str)?,
            },
            5 => Constraint::NotNull { element: r.str()?, attribute: r.str()? },
            t => return Err(bad_tag("Constraint", t)),
        })
    }
}

impl Encode for Schema {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.name);
        let elements: Vec<&Element> = self.elements().collect();
        w.u32(elements.len() as u32);
        for e in elements {
            w.str(&e.name);
            e.kind.encode(w);
            w.seq(&e.attributes, |w, a| a.encode(w));
        }
        w.seq(&self.constraints, |w, c| c.encode(w));
    }
}

impl Decode for Schema {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        let name = r.str()?;
        let mut schema = Schema::new(name);
        let n = r.u32()? as usize;
        for _ in 0..n {
            let name = r.str()?;
            let kind = ElementKind::decode(r)?;
            let attributes = r.seq(Attribute::decode)?;
            schema
                .add_element(Element { name, kind, attributes })
                .map_err(|e| DecodeError(e.to_string()))?;
        }
        for c in r.seq(Constraint::decode)? {
            schema.add_constraint(c).map_err(|e| DecodeError(e.to_string()))?;
        }
        Ok(schema)
    }
}

// --- expressions -----------------------------------------------------------

impl Encode for Lit {
    fn encode(&self, w: &mut Writer) {
        match self {
            Lit::Int(v) => {
                w.u8(0);
                w.i64(*v);
            }
            Lit::Double(v) => {
                w.u8(1);
                w.f64(*v);
            }
            Lit::Bool(v) => {
                w.u8(2);
                w.bool(*v);
            }
            Lit::Text(v) => {
                w.u8(3);
                w.str(v);
            }
            Lit::Date(v) => {
                w.u8(4);
                w.i32(*v);
            }
            Lit::Null => w.u8(5),
        }
    }
}

impl Decode for Lit {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => Lit::Int(r.i64()?),
            1 => Lit::Double(r.f64()?),
            2 => Lit::Bool(r.bool()?),
            3 => Lit::Text(r.str()?),
            4 => Lit::Date(r.i32()?),
            5 => Lit::Null,
            t => return Err(bad_tag("Lit", t)),
        })
    }
}

impl Encode for Func {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            Func::Concat => 0,
            Func::Add => 1,
            Func::Sub => 2,
            Func::Mul => 3,
            Func::Coalesce => 4,
            Func::Upper => 5,
            Func::Lower => 6,
        });
    }
}

impl Decode for Func {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => Func::Concat,
            1 => Func::Add,
            2 => Func::Sub,
            3 => Func::Mul,
            4 => Func::Coalesce,
            5 => Func::Upper,
            6 => Func::Lower,
            t => return Err(bad_tag("Func", t)),
        })
    }
}

impl Encode for CmpOp {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            CmpOp::Eq => 0,
            CmpOp::Ne => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Gt => 4,
            CmpOp::Ge => 5,
        });
    }
}

impl Decode for CmpOp {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => CmpOp::Eq,
            1 => CmpOp::Ne,
            2 => CmpOp::Lt,
            3 => CmpOp::Le,
            4 => CmpOp::Gt,
            5 => CmpOp::Ge,
            t => return Err(bad_tag("CmpOp", t)),
        })
    }
}

impl Encode for Scalar {
    fn encode(&self, w: &mut Writer) {
        match self {
            Scalar::Col(c) => {
                w.u8(0);
                w.str(c);
            }
            Scalar::Lit(l) => {
                w.u8(1);
                l.encode(w);
            }
            Scalar::Func(f, args) => {
                w.u8(2);
                f.encode(w);
                w.seq(args, |w, a| a.encode(w));
            }
            Scalar::Case { branches, otherwise } => {
                w.u8(3);
                w.u32(branches.len() as u32);
                for (p, s) in branches {
                    p.encode(w);
                    s.encode(w);
                }
                otherwise.encode(w);
            }
        }
    }
}

impl Decode for Scalar {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => Scalar::Col(r.str()?),
            1 => Scalar::Lit(Lit::decode(r)?),
            2 => Scalar::Func(Func::decode(r)?, r.seq(Scalar::decode)?),
            3 => Scalar::Case {
                branches: r.seq(|r| Ok((Predicate::decode(r)?, Scalar::decode(r)?)))?,
                otherwise: Box::new(Scalar::decode(r)?),
            },
            t => return Err(bad_tag("Scalar", t)),
        })
    }
}

impl Encode for Predicate {
    fn encode(&self, w: &mut Writer) {
        match self {
            Predicate::Cmp { op, left, right } => {
                w.u8(0);
                op.encode(w);
                left.encode(w);
                right.encode(w);
            }
            Predicate::And(a, b) => {
                w.u8(1);
                a.encode(w);
                b.encode(w);
            }
            Predicate::Or(a, b) => {
                w.u8(2);
                a.encode(w);
                b.encode(w);
            }
            Predicate::Not(p) => {
                w.u8(3);
                p.encode(w);
            }
            Predicate::IsNull(s) => {
                w.u8(4);
                s.encode(w);
            }
            Predicate::IsOf { ty, only } => {
                w.u8(5);
                w.str(ty);
                w.bool(*only);
            }
            Predicate::True => w.u8(6),
            Predicate::False => w.u8(7),
        }
    }
}

impl Decode for Predicate {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => Predicate::Cmp {
                op: CmpOp::decode(r)?,
                left: Scalar::decode(r)?,
                right: Scalar::decode(r)?,
            },
            1 => Predicate::And(Box::new(Predicate::decode(r)?), Box::new(Predicate::decode(r)?)),
            2 => Predicate::Or(Box::new(Predicate::decode(r)?), Box::new(Predicate::decode(r)?)),
            3 => Predicate::Not(Box::new(Predicate::decode(r)?)),
            4 => Predicate::IsNull(Scalar::decode(r)?),
            5 => Predicate::IsOf { ty: r.str()?, only: r.bool()? },
            6 => Predicate::True,
            7 => Predicate::False,
            t => return Err(bad_tag("Predicate", t)),
        })
    }
}

fn encode_pairs(w: &mut Writer, pairs: &[(String, String)]) {
    w.u32(pairs.len() as u32);
    for (a, b) in pairs {
        w.str(a);
        w.str(b);
    }
}

fn decode_pairs(r: &mut Reader) -> DecodeResult<Vec<(String, String)>> {
    r.seq(|r| Ok((r.str()?, r.str()?)))
}

impl Encode for Expr {
    fn encode(&self, w: &mut Writer) {
        match self {
            Expr::Base(n) => {
                w.u8(0);
                w.str(n);
            }
            Expr::Literal { columns, rows } => {
                w.u8(1);
                w.seq(columns, |w, c| w.str(c));
                w.u32(rows.len() as u32);
                for row in rows {
                    w.seq(row, |w, l| l.encode(w));
                }
            }
            Expr::Project { input, columns } => {
                w.u8(2);
                input.encode(w);
                w.seq(columns, |w, c| w.str(c));
            }
            Expr::Select { input, predicate } => {
                w.u8(3);
                input.encode(w);
                predicate.encode(w);
            }
            Expr::Join { left, right, on } => {
                w.u8(4);
                left.encode(w);
                right.encode(w);
                encode_pairs(w, on);
            }
            Expr::LeftJoin { left, right, on } => {
                w.u8(5);
                left.encode(w);
                right.encode(w);
                encode_pairs(w, on);
            }
            Expr::Product { left, right } => {
                w.u8(6);
                left.encode(w);
                right.encode(w);
            }
            Expr::Union { left, right, all } => {
                w.u8(7);
                left.encode(w);
                right.encode(w);
                w.bool(*all);
            }
            Expr::Diff { left, right } => {
                w.u8(8);
                left.encode(w);
                right.encode(w);
            }
            Expr::Rename { input, renames } => {
                w.u8(9);
                input.encode(w);
                encode_pairs(w, renames);
            }
            Expr::Extend { input, column, scalar } => {
                w.u8(10);
                input.encode(w);
                w.str(column);
                scalar.encode(w);
            }
            Expr::Distinct { input } => {
                w.u8(11);
                input.encode(w);
            }
            Expr::Aggregate { input, group_by, aggregates } => {
                w.u8(12);
                input.encode(w);
                w.seq(group_by, |w, g| w.str(g));
                w.u32(aggregates.len() as u32);
                for a in aggregates {
                    w.u8(match a.func {
                        AggFunc::Count => 0,
                        AggFunc::Sum => 1,
                        AggFunc::Min => 2,
                        AggFunc::Max => 3,
                        AggFunc::Avg => 4,
                    });
                    match &a.column {
                        Some(c) => {
                            w.bool(true);
                            w.str(c);
                        }
                        None => w.bool(false),
                    }
                    w.str(&a.output);
                }
            }
        }
    }
}

impl Decode for Expr {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => Expr::Base(r.str()?),
            1 => Expr::Literal {
                columns: r.seq(Reader::str)?,
                rows: r.seq(|r| r.seq(Lit::decode))?,
            },
            2 => Expr::Project {
                input: Box::new(Expr::decode(r)?),
                columns: r.seq(Reader::str)?,
            },
            3 => Expr::Select {
                input: Box::new(Expr::decode(r)?),
                predicate: Predicate::decode(r)?,
            },
            4 => Expr::Join {
                left: Box::new(Expr::decode(r)?),
                right: Box::new(Expr::decode(r)?),
                on: decode_pairs(r)?,
            },
            5 => Expr::LeftJoin {
                left: Box::new(Expr::decode(r)?),
                right: Box::new(Expr::decode(r)?),
                on: decode_pairs(r)?,
            },
            6 => Expr::Product {
                left: Box::new(Expr::decode(r)?),
                right: Box::new(Expr::decode(r)?),
            },
            7 => Expr::Union {
                left: Box::new(Expr::decode(r)?),
                right: Box::new(Expr::decode(r)?),
                all: r.bool()?,
            },
            8 => Expr::Diff {
                left: Box::new(Expr::decode(r)?),
                right: Box::new(Expr::decode(r)?),
            },
            9 => Expr::Rename {
                input: Box::new(Expr::decode(r)?),
                renames: decode_pairs(r)?,
            },
            10 => Expr::Extend {
                input: Box::new(Expr::decode(r)?),
                column: r.str()?,
                scalar: Scalar::decode(r)?,
            },
            11 => Expr::Distinct { input: Box::new(Expr::decode(r)?) },
            12 => {
                let input = Box::new(Expr::decode(r)?);
                let group_by = r.seq(Reader::str)?;
                let aggregates = r.seq(|r| {
                    let func = match r.u8()? {
                        0 => AggFunc::Count,
                        1 => AggFunc::Sum,
                        2 => AggFunc::Min,
                        3 => AggFunc::Max,
                        4 => AggFunc::Avg,
                        t => return Err(bad_tag("AggFunc", t)),
                    };
                    let column = if r.bool()? { Some(r.str()?) } else { None };
                    Ok(AggSpec { func, column, output: r.str()? })
                })?;
                Expr::Aggregate { input, group_by, aggregates }
            }
            t => return Err(bad_tag("Expr", t)),
        })
    }
}

// --- logic ------------------------------------------------------------------

impl Encode for Term {
    fn encode(&self, w: &mut Writer) {
        match self {
            Term::Var(v) => {
                w.u8(0);
                w.str(v);
            }
            Term::Const(l) => {
                w.u8(1);
                l.encode(w);
            }
            Term::Func(f, args) => {
                w.u8(2);
                w.str(f);
                w.seq(args, |w, a| a.encode(w));
            }
        }
    }
}

impl Decode for Term {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => Term::Var(r.str()?),
            1 => Term::Const(Lit::decode(r)?),
            2 => Term::Func(r.str()?, r.seq(Term::decode)?),
            t => return Err(bad_tag("Term", t)),
        })
    }
}

impl Encode for Atom {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.relation);
        w.seq(&self.terms, |w, t| t.encode(w));
    }
}

impl Decode for Atom {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(Atom { relation: r.str()?, terms: r.seq(Term::decode)? })
    }
}

impl Encode for Tgd {
    fn encode(&self, w: &mut Writer) {
        w.seq(&self.body, |w, a| a.encode(w));
        w.seq(&self.head, |w, a| a.encode(w));
    }
}

impl Decode for Tgd {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(Tgd { body: r.seq(Atom::decode)?, head: r.seq(Atom::decode)? })
    }
}

impl Encode for SoTgd {
    fn encode(&self, w: &mut Writer) {
        w.seq(&self.functions, |w, f| w.str(f));
        w.u32(self.clauses.len() as u32);
        for c in &self.clauses {
            w.seq(&c.body, |w, a| a.encode(w));
            w.u32(c.eqs.len() as u32);
            for (l, rr) in &c.eqs {
                l.encode(w);
                rr.encode(w);
            }
            w.seq(&c.head, |w, a| a.encode(w));
        }
    }
}

impl Decode for SoTgd {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        let functions = r.seq(Reader::str)?;
        let clauses = r.seq(|r| {
            Ok(SoClause {
                body: r.seq(Atom::decode)?,
                eqs: r.seq(|r| Ok((Term::decode(r)?, Term::decode(r)?)))?,
                head: r.seq(Atom::decode)?,
            })
        })?;
        Ok(SoTgd { functions, clauses })
    }
}

// --- mappings ----------------------------------------------------------------

impl Encode for MappingConstraint {
    fn encode(&self, w: &mut Writer) {
        match self {
            MappingConstraint::Tgd(t) => {
                w.u8(0);
                t.encode(w);
            }
            MappingConstraint::SoTgd(t) => {
                w.u8(1);
                t.encode(w);
            }
            MappingConstraint::ExprEq { source, target } => {
                w.u8(2);
                source.encode(w);
                target.encode(w);
            }
        }
    }
}

impl Decode for MappingConstraint {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => MappingConstraint::Tgd(Tgd::decode(r)?),
            1 => MappingConstraint::SoTgd(SoTgd::decode(r)?),
            2 => MappingConstraint::ExprEq {
                source: Expr::decode(r)?,
                target: Expr::decode(r)?,
            },
            t => return Err(bad_tag("MappingConstraint", t)),
        })
    }
}

impl Encode for Mapping {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.source_schema);
        w.str(&self.target_schema);
        w.seq(&self.constraints, |w, c| c.encode(w));
    }
}

impl Decode for Mapping {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(Mapping {
            source_schema: r.str()?,
            target_schema: r.str()?,
            constraints: r.seq(MappingConstraint::decode)?,
        })
    }
}

impl Encode for PathRef {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.element);
        match &self.attribute {
            Some(a) => {
                w.bool(true);
                w.str(a);
            }
            None => w.bool(false),
        }
    }
}

impl Decode for PathRef {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        let element = r.str()?;
        let attribute = if r.bool()? { Some(r.str()?) } else { None };
        Ok(PathRef { element, attribute })
    }
}

impl Encode for Correspondence {
    fn encode(&self, w: &mut Writer) {
        self.source.encode(w);
        self.target.encode(w);
        w.f64(self.confidence);
    }
}

impl Decode for Correspondence {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(Correspondence {
            source: PathRef::decode(r)?,
            target: PathRef::decode(r)?,
            confidence: r.f64()?,
        })
    }
}

impl Encode for CorrespondenceSet {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.source_schema);
        w.str(&self.target_schema);
        w.seq(&self.correspondences, |w, c| c.encode(w));
    }
}

impl Decode for CorrespondenceSet {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(CorrespondenceSet {
            source_schema: r.str()?,
            target_schema: r.str()?,
            correspondences: r.seq(Correspondence::decode)?,
        })
    }
}

impl Encode for ViewDef {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.name);
        self.expr.encode(w);
    }
}

impl Decode for ViewDef {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(ViewDef { name: r.str()?, expr: Expr::decode(r)? })
    }
}

impl Encode for ViewSet {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.base_schema);
        w.str(&self.view_schema);
        w.seq(&self.views, |w, v| v.encode(w));
    }
}

impl Decode for ViewSet {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(ViewSet {
            base_schema: r.str()?,
            view_schema: r.str()?,
            views: r.seq(ViewDef::decode)?,
        })
    }
}

// --- instances ---------------------------------------------------------------
//
// The instance codec lives here (rather than in the wire protocol) so the
// WAL can journal data deltas; `mm-server` reuses these impls for its
// frames, keeping the two byte formats identical by construction.

impl Encode for Value {
    fn encode(&self, w: &mut Writer) {
        match self {
            Value::Int(i) => {
                w.u8(0);
                w.i64(*i);
            }
            Value::Double(d) => {
                w.u8(1);
                w.f64(*d);
            }
            Value::Bool(b) => {
                w.u8(2);
                w.bool(*b);
            }
            // both text forms share tag 3: symbols encode straight from
            // the pool's `&'static str`, byte-identical to owned text
            Value::Text(s) => {
                w.u8(3);
                w.str(s);
            }
            Value::Sym(s) => {
                w.u8(3);
                w.str(s.as_str());
            }
            Value::Date(d) => {
                w.u8(4);
                w.i32(*d);
            }
            Value::Null => w.u8(5),
            Value::Labeled(id) => {
                w.u8(6);
                w.u64(*id);
            }
        }
    }
}

impl Decode for Value {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => Value::Int(r.i64()?),
            1 => Value::Double(r.f64()?),
            2 => Value::Bool(r.bool()?),
            // interns on decode (bounded; oversized/overflow text stays
            // owned), so recovered instances land warm in the pool
            3 => Value::text(r.str_ref()?),
            4 => Value::Date(r.i32()?),
            5 => Value::Null,
            6 => Value::Labeled(r.u64()?),
            t => return Err(bad_tag("Value", t)),
        })
    }
}

impl Encode for Tuple {
    fn encode(&self, w: &mut Writer) {
        w.seq(self.values(), |w, v| v.encode(w));
    }
}

impl Decode for Tuple {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(Tuple::new(r.seq(Value::decode)?))
    }
}

impl Encode for Relation {
    fn encode(&self, w: &mut Writer) {
        w.seq(&self.schema.attributes, |w, a| a.encode(w));
        w.seq(self.tuples(), |w, t| t.encode(w));
    }
}

impl Decode for Relation {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        let mut rel = Relation::new(RelSchema::new(r.seq(Attribute::decode)?));
        let n = r.seq_len()?;
        rel.reserve(reserve_bound::<Tuple>(n, r.remaining()));
        for _ in 0..n {
            // wire input may disagree with its own attribute list; that is
            // the instance validator's finding, not a decoder panic
            rel.insert_unchecked(Tuple::decode(r)?);
        }
        Ok(rel)
    }
}

impl Encode for Database {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.name);
        w.u64(self.label_watermark());
        let rels: Vec<(&str, &Relation)> = self.relations().collect();
        w.seq(&rels, |w, (name, rel)| {
            w.str(name);
            rel.encode(w);
        });
    }
}

impl Decode for Database {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        let name = r.str()?;
        let watermark = r.u64()?;
        let mut db = Database::new(name);
        let n = r.seq_len()?;
        for _ in 0..n {
            let rel_name = r.str()?;
            let rel = Relation::decode(r)?;
            db.insert_relation(rel_name, rel);
        }
        db.set_label_watermark(watermark);
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_instance::intern;
    use mm_metamodel::SchemaBuilder;
    use proptest::prelude::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = Writer::new();
        v.encode(&mut w);
        let mut r = Reader::new(w.finish());
        let back = T::decode(&mut r).expect("decode");
        assert_eq!(&back, v);
        assert!(r.is_empty(), "trailing bytes after decode");
    }

    #[test]
    fn schema_roundtrips() {
        let s = SchemaBuilder::new("ER")
            .entity("Person", &[("Id", DataType::Int), ("Name", DataType::Text)])
            .entity_sub("Employee", "Person", &[("Dept", DataType::Text)])
            .relation("T", &[("a", DataType::Double)])
            .nested("Items", "T", &[("qty", DataType::Int)])
            .association("A", "Person", "Employee", Cardinality::One, Cardinality::Many)
            .key("Person", &["Id"])
            .foreign_key("T", &["a"], "T", &["a"])
            .build()
            .unwrap();
        roundtrip(&s);
    }

    #[test]
    fn expr_roundtrips() {
        use mm_expr::Scalar;
        let e = Expr::base("Names")
            .join(Expr::base("Addresses"), &[("SID", "SID")])
            .select(Predicate::col_eq_lit("Country", "US").or(Predicate::IsNull(Scalar::col("Zip"))))
            .extend("tag", Scalar::Case {
                branches: vec![(Predicate::True, Scalar::lit(1i64))],
                otherwise: Box::new(Scalar::Lit(Lit::Null)),
            })
            .project(&["Name", "tag"])
            .union(Expr::literal_row(&["Name", "tag"], vec![Lit::text("x"), Lit::Int(0)]))
            .distinct()
            .aggregate(
                &["Name"],
                vec![
                    AggSpec::count("n"),
                    AggSpec::of(AggFunc::Sum, "tag", "total"),
                ],
            );
        roundtrip(&e);
    }

    #[test]
    fn mapping_with_all_constraint_kinds_roundtrips() {
        let tgd = Tgd::new(vec![Atom::vars("R", &["x"])], vec![Atom::vars("S", &["x", "y"])]);
        let so = SoTgd::skolemize(std::slice::from_ref(&tgd), "f");
        let m = Mapping::with_constraints(
            "A",
            "B",
            vec![
                MappingConstraint::Tgd(tgd),
                MappingConstraint::SoTgd(so),
                MappingConstraint::ExprEq {
                    source: Expr::base("R").project(&["x"]),
                    target: Expr::base("S"),
                },
            ],
        );
        roundtrip(&m);
    }

    #[test]
    fn correspondences_and_views_roundtrip() {
        let mut cs = CorrespondenceSet::new("S", "T");
        cs.push(Correspondence::new(
            PathRef::attr("A", "x"),
            PathRef::element("B"),
            0.75,
        ));
        roundtrip(&cs);
        let mut vs = ViewSet::new("S", "V");
        vs.push(ViewDef::new("V1", Expr::base("A").rename(&[("x", "y")])));
        roundtrip(&vs);
    }

    #[test]
    fn truncated_buffer_errors_cleanly() {
        let mut w = Writer::new();
        Expr::base("LongRelationName").encode(&mut w);
        let bytes = w.finish();
        let mut r = Reader::new(bytes.slice(0..3));
        assert!(Expr::decode(&mut r).is_err());
    }

    #[test]
    fn unknown_tag_errors_cleanly() {
        let mut w = Writer::new();
        w.u8(99);
        let mut r = Reader::new(w.finish());
        assert!(Expr::decode(&mut r).is_err());
    }

    #[test]
    fn database_roundtrips_bit_identically() {
        let mut db = Database::new("S");
        let mut rel = Relation::new(RelSchema::of(&[
            ("Id", DataType::Int),
            ("Name", DataType::Text),
        ]));
        rel.insert(Tuple::new(vec![Value::Int(1), Value::text("ada")]));
        rel.insert(Tuple::new(vec![Value::Int(2), Value::Labeled(7)]));
        db.insert_relation("Person", rel);
        db.insert_relation("Empty", Relation::new(RelSchema::of(&[("x", DataType::Any)])));
        db.set_label_watermark(8);
        let mut w = Writer::new();
        db.encode(&mut w);
        let bytes = w.finish();
        let mut r = Reader::new(bytes.clone());
        let back = Database::decode(&mut r).expect("decode");
        assert!(r.is_empty());
        assert_eq!(back.name, db.name);
        assert_eq!(back.label_watermark(), db.label_watermark());
        let mut w2 = Writer::new();
        back.encode(&mut w2);
        assert_eq!(w2.finish(), bytes, "re-encode is bit-identical");
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // standard IEEE CRC32 check values
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The byte-at-a-time table loop `crc32` used to be: the oracle the
    /// sliced implementation is differential-tested against.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    proptest! {
        /// Every chunk/remainder split and every alignment: lengths
        /// 0..=80 at start offsets 0..16 of one shared buffer.
        #[test]
        fn sliced_crc32_matches_the_bytewise_oracle(
            buf in proptest::collection::vec(any::<u8>(), 96)
        ) {
            for start in 0..16 {
                for len in 0..=80 {
                    let window = &buf[start..start + len];
                    prop_assert_eq!(crc32(window), crc32_bytewise(window), "start {start} len {len}");
                }
            }
        }
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_oracle_on_a_mebibyte() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..1 << 20)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect();
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
        assert_eq!(crc32(&buf[3..]), crc32_bytewise(&buf[3..]));
    }

    /// What the WAL's and the wire's bit-flip tests rely on: a CRC32
    /// detects every single-bit error.
    #[test]
    fn crc32_changes_on_any_single_bit_flip() {
        let payload: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        let clean = crc32(&payload);
        for bit in 0..payload.len() * 8 {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&flipped), clean, "bit {bit}");
        }
    }

    #[test]
    fn reservation_is_bounded_by_input_bytes_not_announced_elements() {
        const MIB16: usize = 16 << 20;
        // the bound as a pure function: never more bytes than remain
        assert_eq!(reserve_bound::<Tuple>(MIB16, MIB16), MIB16 / std::mem::size_of::<Tuple>());
        assert_eq!(
            reserve_bound::<Attribute>(MIB16, MIB16),
            MIB16 / std::mem::size_of::<Attribute>()
        );
        assert_eq!(reserve_bound::<u8>(MIB16, MIB16), MIB16);
        assert_eq!(reserve_bound::<()>(7, 0), 0);
        // honest prefixes are not clipped below what they announce
        assert_eq!(reserve_bound::<Tuple>(3, MIB16), 3);
        for (n, remaining) in [(0, 0), (1, 1), (5, 4096), (MIB16, MIB16), (usize::MAX, MIB16)] {
            assert!(reserve_bound::<Tuple>(n, remaining) * std::mem::size_of::<Tuple>() <= remaining);
        }

        // no attributes, then a tuple count claiming one tuple per
        // remaining byte: a 16 MiB frame that used to reserve 112x itself
        let mut payload = vec![0xFFu8; MIB16];
        payload[0..4].copy_from_slice(&0u32.to_le_bytes());
        payload[4..8].copy_from_slice(&((MIB16 - 8) as u32).to_le_bytes());
        let mut r = Reader::new(Bytes::from(payload));
        assert!(Relation::decode(&mut r).is_err());
    }

    #[test]
    fn invalid_utf8_is_rejected_with_the_std_message() {
        let mut w = Writer::new();
        w.u32(2);
        w.u8(b'a');
        w.u8(0xFF);
        let bytes = w.finish();
        let expected = "invalid utf-8 sequence of 1 bytes from index 1";
        assert_eq!(Reader::new(bytes.clone()).str(), Err(DecodeError(expected.to_string())));
        assert_eq!(
            Reader::new(bytes).str_ref().map(str::to_owned),
            Err(DecodeError(expected.to_string()))
        );
    }

    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Double),
            Just(Value::Double(f64::NAN)),
            any::<bool>().prop_map(Value::Bool),
            "[a-z]{0,8}".prop_map(Value::text),
            // the pool's length boundary: empty, longest poolable, first refused
            (0usize..3).prop_map(|i| Value::text("x".repeat([0, 128, 129][i]))),
            any::<i32>().prop_map(Value::Date),
            Just(Value::Null),
            any::<u64>().prop_map(Value::Labeled),
        ]
    }

    /// `rows` cut to `arity` columns, as wire bytes with the first
    /// `dups` rows repeated at the end, and as the relation they denote.
    fn wire_and_relation(arity: usize, rows: &[Vec<Value>], dups: usize) -> (Bytes, Relation) {
        let attrs: Vec<Attribute> =
            (0..arity).map(|i| Attribute::new(format!("c{i}"), DataType::Any)).collect();
        let rows: Vec<Vec<Value>> = rows.iter().map(|row| row[..arity].to_vec()).collect();
        let on_wire: Vec<&Vec<Value>> = rows.iter().chain(rows.iter().take(dups)).collect();
        let mut w = Writer::new();
        w.seq(&attrs, |w, a| a.encode(w));
        w.seq(&on_wire, |w, row| w.seq(row, |w, v| v.encode(w)));
        let rel = Relation::with_tuples(RelSchema::new(attrs), rows.into_iter().map(Tuple::new));
        (w.finish(), rel)
    }

    proptest! {
        /// Both tuple layouts (arity 0..=6 straddles the inline bound),
        /// duplicates on the wire, every value kind: the decoded database
        /// is the denoted one and re-encodes to its canonical bytes, and
        /// decoded text is pooled exactly when the pool's length cap
        /// admits it.
        #[test]
        fn database_decode_matches_the_denoted_instance(
            arity in 0usize..7,
            rows in proptest::collection::vec(proptest::collection::vec(value_strategy(), 6), 0..6),
            dups in 0usize..3,
            watermark in any::<u64>()
        ) {
            let rels = [
                ("R0", wire_and_relation(arity, &rows, dups)),
                ("R1", wire_and_relation((arity + 3) % 7, &rows, 0)),
            ];
            let mut expected = Database::new("D");
            let mut w = Writer::new();
            w.str("D");
            w.u64(watermark);
            w.u32(rels.len() as u32);
            for (name, (wire, rel)) in rels {
                w.str(name);
                w.buf.put_slice(&wire);
                expected.insert_relation(name, rel);
            }
            expected.set_label_watermark(watermark);
            let wire = w.finish();
            let mut canonical = Writer::new();
            expected.encode(&mut canonical);
            let canonical = canonical.finish();
            // dedup only ever drops tuples: same length means nothing was
            // dropped, and then the wire bytes were already canonical
            prop_assert!(canonical.len() <= wire.len());
            if canonical.len() == wire.len() {
                prop_assert_eq!(&canonical, &wire);
            }

            let mut r = Reader::new(wire);
            let back = Database::decode(&mut r).expect("decode");
            prop_assert!(r.is_empty());
            prop_assert_eq!(&back, &expected);
            prop_assert_eq!(back.label_watermark(), watermark);
            let mut again = Writer::new();
            back.encode(&mut again);
            prop_assert_eq!(&again.finish(), &canonical);
            for v in back.relations().flat_map(|(_, rel)| rel.iter()).flat_map(|t| t.values()) {
                if let Some(text) = v.as_text() {
                    prop_assert_eq!(
                        matches!(v, Value::Sym(_)),
                        text.len() <= intern::MAX_INTERN_LEN,
                        "text of length {} decoded as {:?}", text.len(), v
                    );
                }
            }
        }
    }

    #[test]
    fn adversarial_length_prefixes_error_before_allocating() {
        // a str whose length prefix claims u32::MAX bytes
        let mut w = Writer::new();
        w.u32(u32::MAX);
        w.u8(b'x');
        let mut r = Reader::new(w.finish());
        assert!(r.str().is_err());

        // an SO-tgd clause count far beyond the buffer
        let mut w = Writer::new();
        w.u32(0); // no functions
        w.u32(u32::MAX); // absurd clause count
        let mut r = Reader::new(w.finish());
        assert!(SoTgd::decode(&mut r).is_err());

        // a literal-table row count beyond the buffer
        let mut w = Writer::new();
        w.u8(1); // Expr::Literal tag
        w.u32(0); // no columns
        w.u32(0x7FFF_FFFF); // absurd row count
        let mut r = Reader::new(w.finish());
        assert!(Expr::decode(&mut r).is_err());
    }

    #[test]
    fn corrupt_length_errors_cleanly() {
        let mut w = Writer::new();
        w.u8(0); // Base tag
        w.u32(u32::MAX); // absurd string length
        let mut r = Reader::new(w.finish());
        assert!(Expr::decode(&mut r).is_err());
    }
}
