//! `Wire`: the one byte layout of every type Warp persists.
//!
//! Every log record and checkpoint payload is built from values that
//! implement [`Wire`]: `put` appends a value to an [`Encoder`], `get` reads
//! it back from a [`Decoder`]. A struct states its field order once
//! (`wire_struct!`) and an enum its tag → variant table once
//! (`wire_enum!`); both halves are generated from that one list. The bytes
//! are `warp-store`'s primitives: little-endian integers, a `u32` count
//! before every string, sequence and map, a presence byte before an option's
//! value and a `u8` tag before a variant's fields. Two layouts are written by
//! hand: a cookie jar (its map is private) and a query record (its row IDs
//! go on the wire twice, and must read back equal).

use crate::conflict::{Conflict, ConflictKind};
use crate::history::{ActionRecord, ClientRef, NondetRecord, QueryRecord};
use crate::repair::RepairRequest;
use crate::sourcefs::Patch;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use warp_browser::{ConflictReason, EventKind, PageVisitRecord, RecordedEvent, RecordedRequest};
use warp_http::{CookieJar, HttpRequest, HttpResponse, Method, WarpHeaders};
use warp_script::Value as ScriptValue;
use warp_sql::ColumnSet;
use warp_sql::Value as SqlValue;
use warp_store::{CodecError, Decoder, Encoder};
use warp_ttdb::{PartitionKey, PartitionSet, QueryDependency, TableAnnotation, TableDelta};

/// A value with one byte layout: `get` reads back exactly what `put` wrote.
pub(crate) trait Wire: Sized {
    /// Appends the value to `e`.
    fn put(&self, e: &mut Encoder);
    /// Reads one value from `d`.
    fn get(d: &mut Decoder) -> Result<Self, CodecError>;
}

/// An enum told apart by a `u8` tag: in the stream before the fields
/// (`wire_enum!`), or outside it, as a log record's kind
/// (`wire_variants!`).
pub(crate) trait Variants: Sized {
    /// Appends the variant's fields, after its tag when `tagged`, and returns
    /// the tag.
    fn put_variant(&self, e: &mut Encoder, tagged: bool) -> u8;
    /// Reads the fields of the variant `tag` names.
    fn get_variant(tag: u8, d: &mut Decoder) -> Result<Self, CodecError>;
}

/// A decode error with `msg`.
pub(crate) fn bad(msg: impl Into<String>) -> CodecError {
    CodecError(msg.into())
}

/// Implements [`Wire`] for structs: each struct's fields, in the order listed.
macro_rules! wire_struct {
    ($($ty:ty { $($field:ident),+ $(,)? })+) => {$(
        impl $crate::wire::Wire for $ty {
            fn put(&self, e: &mut ::warp_store::Encoder) {
                $($crate::wire::Wire::put(&self.$field, e);)+
            }

            fn get(d: &mut ::warp_store::Decoder) -> Result<Self, ::warp_store::CodecError> {
                Ok(Self { $($field: $crate::wire::Wire::get(d)?),+ })
            }
        }
    )+};
}

/// Implements [`Variants`] for enums: `tag => Variant`, `tag => Variant(a, b)`
/// or `tag => Variant { a, b }`, the fields in the order listed; `$what`
/// names the tag in the error an unknown one raises.
macro_rules! wire_variants {
    ($($ty:ident $what:literal {
        $($tag:tt => $variant:ident $(($($t:ident),+))? $({$($n:ident),+})?),+ $(,)?
    })+) => {$(
        impl $crate::wire::Variants for $ty {
            fn put_variant(&self, e: &mut ::warp_store::Encoder, tagged: bool) -> u8 {
                match self {
                    $($ty::$variant $(($($t),+))? $({$($n),+})? => {
                        if tagged {
                            e.u8($tag);
                        }
                        $($($crate::wire::Wire::put($t, e);)+)?
                        $($($crate::wire::Wire::put($n, e);)+)?
                        $tag
                    })+
                }
            }

            // A unit-only enum reads no fields.
            #[allow(unused_variables)]
            fn get_variant(
                tag: u8,
                d: &mut ::warp_store::Decoder,
            ) -> Result<Self, ::warp_store::CodecError> {
                match tag {
                    $($tag => {
                        $($(let $t = $crate::wire::Wire::get(d)?;)+)?
                        $($(let $n = $crate::wire::Wire::get(d)?;)+)?
                        Ok($ty::$variant $(($($t),+))? $({$($n),+})?)
                    })+
                    t => Err($crate::wire::bad(format!(concat!("unknown ", $what, " {}"), t))),
                }
            }
        }
    )+};
}

/// Implements [`Variants`] (see `wire_variants!`) and a [`Wire`] that writes
/// the tag before the fields.
macro_rules! wire_enum {
    ($($ty:ident $what:literal { $($arms:tt)+ })+) => {$(
        $crate::wire::wire_variants! { $ty $what { $($arms)+ } }

        impl Wire for $ty {
            fn put(&self, e: &mut Encoder) {
                self.put_variant(e, true);
            }

            fn get(d: &mut Decoder) -> Result<Self, CodecError> {
                let tag = d.u8()?;
                Self::get_variant(tag, d)
            }
        }
    )+};
}

pub(crate) use {wire_struct, wire_variants};

// ---------------------------------------------------------------------------
// Scalars, strings and containers
// ---------------------------------------------------------------------------

/// Implements [`Wire`] from one `put` and one `get` expression per type.
macro_rules! wire_with {
    ($($ty:ty => |$v:ident, $e:ident| $put:expr, |$d:ident| $get:expr;)+) => {$(
        impl Wire for $ty {
            fn put(&self, $e: &mut Encoder) {
                let $v = self;
                $put
            }

            fn get($d: &mut Decoder) -> Result<Self, CodecError> {
                $get
            }
        }
    )+};
}

wire_with! {
    bool => |v, e| e.bool(*v), |d| d.bool();
    u32 => |v, e| e.u32(*v), |d| d.u32();
    u64 => |v, e| e.u64(*v), |d| d.u64();
    i64 => |v, e| e.i64(*v), |d| d.i64();
    f64 => |v, e| e.f64(*v), |d| d.f64();
    String => |v, e| e.str(v), |d| d.str();
    // As the wider integer they are written as; one that does not fit reads
    // back as an error.
    u16 => |v, e| e.u32(u32::from(*v)), |d| narrow(d.u32()?);
    usize => |v, e| e.u64(*v as u64), |d| narrow(d.u64()?);
}

fn narrow<W: Copy + std::fmt::Display, N: TryFrom<W>>(v: W) -> Result<N, CodecError> {
    N::try_from(v).map_err(|_| bad(format!("{v} is out of range")))
}

/// A `u32` count, then the elements; a count larger than the bytes left is
/// an error, not an allocation ([`Decoder::seq`]).
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, e: &mut Encoder) {
        e.seq(self, |e, item| item.put(e));
    }

    fn get(d: &mut Decoder) -> Result<Self, CodecError> {
        d.seq(T::get)
    }
}

/// A borrowed slice is written as a `Vec`; it reads back owned.
impl<T: Wire + Clone> Wire for Cow<'_, [T]> {
    fn put(&self, e: &mut Encoder) {
        e.seq(self, |e, item| item.put(e));
    }

    fn get(d: &mut Decoder) -> Result<Self, CodecError> {
        Vec::get(d).map(Cow::Owned)
    }
}

/// A borrowed value is written as the owned one; it reads back owned.
impl<T: Wire + Clone> Wire for Cow<'_, T> {
    fn put(&self, e: &mut Encoder) {
        (**self).put(e);
    }

    fn get(d: &mut Decoder) -> Result<Self, CodecError> {
        T::get(d).map(Cow::Owned)
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, e: &mut Encoder) {
        (**self).put(e);
    }

    fn get(d: &mut Decoder) -> Result<Self, CodecError> {
        T::get(d).map(Box::new)
    }
}

/// A presence byte, then the value.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, e: &mut Encoder) {
        e.bool(self.is_some());
        if let Some(v) = self {
            v.put(e);
        }
    }

    fn get(d: &mut Decoder) -> Result<Self, CodecError> {
        Ok(if d.bool()? { Some(T::get(d)?) } else { None })
    }
}

/// A `u32` count, then each key and its value in key order.
impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, e: &mut Encoder) {
        e.u32(self.len() as u32);
        for (k, v) in self {
            k.put(e);
            v.put(e);
        }
    }

    fn get(d: &mut Decoder) -> Result<Self, CodecError> {
        let mut map = BTreeMap::new();
        for _ in 0..d.u32()? {
            map.insert(K::get(d)?, V::get(d)?);
        }
        Ok(map)
    }
}

/// A `u32` count, then the elements in order.
impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn put(&self, e: &mut Encoder) {
        e.u32(self.len() as u32);
        self.iter().for_each(|item| item.put(e));
    }

    fn get(d: &mut Decoder) -> Result<Self, CodecError> {
        let mut set = BTreeSet::new();
        for _ in 0..d.u32()? {
            set.insert(T::get(d)?);
        }
        Ok(set)
    }
}

macro_rules! wire_tuple {
    ($(($($t:ident . $i:tt),+))+) => {$(
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn put(&self, e: &mut Encoder) {
                $(self.$i.put(e);)+
            }

            fn get(d: &mut Decoder) -> Result<Self, CodecError> {
                Ok(($($t::get(d)?,)+))
            }
        }
    )+};
}

wire_tuple! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

// ---------------------------------------------------------------------------
// The persisted types
// ---------------------------------------------------------------------------

wire_enum! {
    SqlValue "SQL value tag" { 0 => Null, 1 => Bool(b), 2 => Int(i), 3 => Float(f), 4 => Text(s) }
    ScriptValue "script value tag" {
        0 => Null, 1 => Bool(b), 2 => Int(i), 3 => Float(f), 4 => Str(s), 5 => Array(items),
        6 => Map(map),
    }
    Method "HTTP method tag" { 0 => Get, 1 => Post }
    PartitionSet "partition set tag" { 0 => Whole { table }, 1 => Keys(keys) }
    ColumnSet "column set tag" { 0 => All, 1 => Named(names) }
    EventKind "event kind tag" { 0 => Input, 1 => Click, 2 => Submit }
    RepairRequest "repair request tag" {
        0 => RetroactivePatch { patch, from_time },
        1 => UndoVisit { client_id, visit_id, initiated_by_admin },
    }
    ConflictKind "conflict kind tag" {
        0 => BrowserReplay(reason), 1 => ActionCancelled, 2 => ReexecutionFailed(message),
    }
    ConflictReason "conflict reason tag" {
        0 => NoClientLog, 1 => MissingTarget(target), 2 => TextMergeConflict(text),
        3 => FramingDenied,
    }
}

wire_struct! {
    HttpRequest { method, path, query, form, headers, cookies, warp }
    WarpHeaders { client_id, visit_id, request_id }
    HttpResponse { status, headers, set_cookies, body }
    PartitionKey { table, column, value }
    QueryDependency {
        table, is_read, is_write, read_partitions, write_partitions, written_row_ids,
        read_columns, write_columns,
    }
    NondetRecord { func, args, result }
    ClientRef { client_id, visit_id, request_id }
    ActionRecord {
        id, time, request, response, client, entry_script, loaded_files, queries, nondet,
        cancelled,
    }
    RecordedEvent { seq, kind, target, value, base_value }
    RecordedRequest { request_id, method, path, params }
    PageVisitRecord { client_id, visit_id, url, caused_by_visit, in_frame, events, requests }
    Patch { filename, patched_source, description }
    Conflict { client_id, visit_id, url, kind, resolved, partition }
    TableAnnotation { row_id_column, partition_columns }
    TableDelta { remove, add }
}

/// The jar's cookies as a sequence of `(name, value)` pairs in name order.
impl Wire for CookieJar {
    fn put(&self, e: &mut Encoder) {
        e.u32(self.iter().count() as u32);
        for (name, value) in self.iter() {
            name.put(e);
            value.put(e);
        }
    }

    fn get(d: &mut Decoder) -> Result<Self, CodecError> {
        let mut jar = CookieJar::new();
        for (name, value) in Vec::<(String, String)>::get(d)? {
            jar.set(name, value);
        }
        Ok(jar)
    }
}

/// The record's fields, with the written row IDs before the dependency as
/// well as inside it; the two copies must agree.
impl Wire for QueryRecord {
    fn put(&self, e: &mut Encoder) {
        self.sql.put(e);
        self.time.put(e);
        self.result_fingerprint.put(e);
        self.is_write.put(e);
        self.dependency.written_row_ids.put(e);
        self.dependency.put(e);
    }

    fn get(d: &mut Decoder) -> Result<Self, CodecError> {
        let (sql, time, result_fingerprint, is_write) = Wire::get(d)?;
        let written_row_ids: Vec<SqlValue> = Wire::get(d)?;
        let dependency = QueryDependency::get(d)?;
        if written_row_ids != dependency.written_row_ids {
            return Err(bad("a query record's two copies of its row IDs differ"));
        }
        Ok(QueryRecord {
            sql,
            time,
            result_fingerprint,
            is_write,
            dependency,
        })
    }
}
