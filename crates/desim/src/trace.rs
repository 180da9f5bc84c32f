//! Generic timestamped trace recording.
//!
//! The VORX "software oscilloscope" (§6.2 of the paper) records execution
//! data while the application runs and displays it afterwards. This module
//! provides the recording half in a domain-agnostic way: a `Trace<E>` is an
//! append-only log of `(SimTime, E)` pairs that higher layers (the
//! oscilloscope, `cdb`, experiment harnesses) interpret.

use serde::Serialize;

use crate::time::SimTime;

/// An append-only, time-ordered event log. Two traces are equal when they
/// hold the same events and the same recording state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace<E> {
    events: Vec<(SimTime, E)>,
    enabled: bool,
}

impl<E> Default for Trace<E> {
    fn default() -> Self {
        Trace {
            events: Vec::new(),
            enabled: true,
        }
    }
}

impl<E> Trace<E> {
    /// A new, enabled trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// A trace that discards everything (zero overhead for production runs).
    pub fn disabled() -> Self {
        Trace {
            events: Vec::new(),
            enabled: false,
        }
    }

    /// Record `event` at `t`. Events must be recorded in non-decreasing time
    /// order (the simulation guarantees this naturally).
    pub fn record(&mut self, t: SimTime, event: E) {
        if self.enabled {
            debug_assert!(
                self.events.last().is_none_or(|(last, _)| *last <= t),
                "trace events recorded out of order"
            );
            self.events.push((t, event));
        }
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off mid-run (the oscilloscope lets the user
    /// bracket the interesting interval).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True iff nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterate over `(time, event)` pairs in record order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &E)> {
        self.events.iter().map(|(t, e)| (*t, e))
    }

    /// Events within `[from, to)`.
    ///
    /// The log is time-sorted (see [`Trace::record`]), so both bounds are
    /// located by binary search; cost is O(log n + k) for k yielded events
    /// rather than a scan of the whole log.
    pub fn window(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = (SimTime, &E)> {
        let lo = self.events.partition_point(|(t, _)| *t < from);
        let hi = lo + self.events[lo..].partition_point(|(t, _)| *t < to);
        self.events[lo..hi].iter().map(|(t, e)| (*t, e))
    }

    /// Drop all recorded events, keeping the enabled flag.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Consume the trace, returning the raw log.
    pub fn into_events(self) -> Vec<(SimTime, E)> {
        self.events
    }

    /// Merge several time-ordered traces into one global timeline. Ordering
    /// is by `(time, trace index, record index)`: ties at equal time resolve
    /// in favor of the earlier-indexed trace, and record order within one
    /// trace is preserved (the merge is stable). The sharded engine uses
    /// this to reassemble the global trace from per-shard traces; the result
    /// upholds the [`Trace::record`] ordering invariant, so
    /// [`Trace::window`] and the oscilloscope consume it unchanged.
    ///
    /// The merge moves events, never clones them, and splices whole *runs*:
    /// whenever the leading trace's next events all precede every other
    /// trace's head, they are located by binary search and bulk-moved in one
    /// `extend` instead of element-by-element head comparisons. Shard traces
    /// are long stretches of local activity punctuated by cross-shard
    /// contact, so runs are long and the merge is effectively a few
    /// `memcpy`s. A single non-empty input is returned as-is (zero copies,
    /// zero allocations).
    pub fn merge(traces: Vec<Trace<E>>) -> Trace<E> {
        let mut nonempty = traces;
        nonempty.retain(|t| !t.is_empty());
        if nonempty.len() <= 1 {
            let mut t = nonempty.pop().unwrap_or_default();
            t.enabled = true;
            return t;
        }
        let total = nonempty.iter().map(Trace::len).sum();
        let mut parts: Vec<std::vec::IntoIter<(SimTime, E)>> =
            nonempty.into_iter().map(|t| t.events.into_iter()).collect();
        // Invariant: every entry in `parts` is non-empty, in original trace
        // order (exhausted entries are removed, preserving tie stability).
        let head = |p: &std::vec::IntoIter<(SimTime, E)>| p.as_slice()[0].0;
        let mut events = Vec::with_capacity(total);
        while parts.len() > 1 {
            // The part with the earliest head goes next; ties at equal time
            // resolve to the earliest index (stability).
            let mut i = 0;
            let mut it = head(&parts[0]);
            for (j, p) in parts.iter().enumerate().skip(1) {
                let t = head(p);
                if t < it {
                    i = j;
                    it = t;
                }
            }
            // How far may part `i` run? Up to the earliest head among the
            // others: inclusively if `i` wins the tie (i < j), else
            // exclusively.
            let (lim_t, lim_j) = parts
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(j, p)| (head(p), j))
                .min()
                .expect("at least two parts");
            let run = if i < lim_j {
                parts[i].as_slice().partition_point(|(t, _)| *t <= lim_t)
            } else {
                parts[i].as_slice().partition_point(|(t, _)| *t < lim_t)
            };
            debug_assert!(run >= 1, "earliest head must be part of its run");
            events.extend(parts[i].by_ref().take(run));
            if parts[i].as_slice().is_empty() {
                parts.remove(i);
            }
        }
        events.extend(parts.pop().expect("one part remains"));
        Trace {
            events,
            enabled: true,
        }
    }
}

impl<E: Serialize> Trace<E> {
    /// Serialize the trace as a JSON array of `{t_ns, event}` objects, for
    /// offline analysis. Uses a hand-rolled envelope to avoid requiring
    /// `SimTime: Serialize`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, (t, e)) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"t_ns\":{},\"event\":{}}}",
                t.as_ns(),
                serde_json_value(e)
            ));
        }
        out.push(']');
        out
    }
}

/// Minimal JSON serialization via serde's `Serialize` into a string. We avoid
/// pulling in `serde_json` (not in the approved dependency set) by
/// implementing the small subset we need.
fn serde_json_value<E: Serialize>(e: &E) -> String {
    let mut ser = MiniJson::default();
    e.serialize(&mut ser)
        .expect("trace event serialization failed");
    ser.out
}

/// A deliberately small JSON serializer: supports the scalar types, strings,
/// sequences, maps, structs, and enum variants that trace events use.
#[derive(Default)]
struct MiniJson {
    out: String,
}

#[derive(Debug)]
struct MiniJsonError(String);

impl std::fmt::Display for MiniJsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for MiniJsonError {}
impl serde::ser::Error for MiniJsonError {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        MiniJsonError(msg.to_string())
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

macro_rules! ser_num {
    ($fn:ident, $ty:ty) => {
        fn $fn(self, v: $ty) -> Result<(), MiniJsonError> {
            self.out.push_str(&v.to_string());
            Ok(())
        }
    };
}

impl<'a> serde::Serializer for &'a mut MiniJson {
    type Ok = ();
    type Error = MiniJsonError;
    type SerializeSeq = SeqSer<'a>;
    type SerializeTuple = SeqSer<'a>;
    type SerializeTupleStruct = SeqSer<'a>;
    type SerializeTupleVariant = SeqSer<'a>;
    type SerializeMap = MapSer<'a>;
    type SerializeStruct = MapSer<'a>;
    type SerializeStructVariant = MapSer<'a>;

    fn serialize_bool(self, v: bool) -> Result<(), MiniJsonError> {
        self.out.push_str(if v { "true" } else { "false" });
        Ok(())
    }
    ser_num!(serialize_i8, i8);
    ser_num!(serialize_i16, i16);
    ser_num!(serialize_i32, i32);
    ser_num!(serialize_i64, i64);
    ser_num!(serialize_u8, u8);
    ser_num!(serialize_u16, u16);
    ser_num!(serialize_u32, u32);
    ser_num!(serialize_u64, u64);
    fn serialize_f32(self, v: f32) -> Result<(), MiniJsonError> {
        self.serialize_f64(f64::from(v))
    }
    fn serialize_f64(self, v: f64) -> Result<(), MiniJsonError> {
        if v.is_finite() {
            self.out.push_str(&v.to_string());
        } else {
            self.out.push_str("null");
        }
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result<(), MiniJsonError> {
        self.out.push_str(&esc(&v.to_string()));
        Ok(())
    }
    fn serialize_str(self, v: &str) -> Result<(), MiniJsonError> {
        self.out.push_str(&esc(v));
        Ok(())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<(), MiniJsonError> {
        use serde::ser::SerializeSeq;
        let mut seq = self.serialize_seq(Some(v.len()))?;
        for b in v {
            seq.serialize_element(b)?;
        }
        seq.end()
    }
    fn serialize_none(self) -> Result<(), MiniJsonError> {
        self.out.push_str("null");
        Ok(())
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), MiniJsonError> {
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<(), MiniJsonError> {
        self.out.push_str("null");
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), MiniJsonError> {
        self.serialize_unit()
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _idx: u32,
        variant: &'static str,
    ) -> Result<(), MiniJsonError> {
        self.serialize_str(variant)
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), MiniJsonError> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _idx: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<(), MiniJsonError> {
        self.out.push('{');
        self.out.push_str(&esc(variant));
        self.out.push(':');
        value.serialize(&mut *self)?;
        self.out.push('}');
        Ok(())
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result<SeqSer<'a>, MiniJsonError> {
        self.out.push('[');
        Ok(SeqSer {
            ser: self,
            first: true,
            close: "]",
        })
    }
    fn serialize_tuple(self, len: usize) -> Result<SeqSer<'a>, MiniJsonError> {
        self.serialize_seq(Some(len))
    }
    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        len: usize,
    ) -> Result<SeqSer<'a>, MiniJsonError> {
        self.serialize_seq(Some(len))
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _idx: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<SeqSer<'a>, MiniJsonError> {
        self.out.push('{');
        self.out.push_str(&esc(variant));
        self.out.push_str(":[");
        Ok(SeqSer {
            ser: self,
            first: true,
            close: "]}",
        })
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<MapSer<'a>, MiniJsonError> {
        self.out.push('{');
        Ok(MapSer {
            ser: self,
            first: true,
            close: "}",
        })
    }
    fn serialize_struct(
        self,
        _name: &'static str,
        len: usize,
    ) -> Result<MapSer<'a>, MiniJsonError> {
        self.serialize_map(Some(len))
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _idx: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<MapSer<'a>, MiniJsonError> {
        self.out.push('{');
        self.out.push_str(&esc(variant));
        self.out.push_str(":{");
        Ok(MapSer {
            ser: self,
            first: true,
            close: "}}",
        })
    }
}

struct SeqSer<'a> {
    ser: &'a mut MiniJson,
    first: bool,
    close: &'static str,
}

impl SeqSer<'_> {
    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.ser.out.push(',');
        }
    }
}

impl serde::ser::SerializeSeq for SeqSer<'_> {
    type Ok = ();
    type Error = MiniJsonError;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), MiniJsonError> {
        self.sep();
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<(), MiniJsonError> {
        self.ser.out.push_str(self.close);
        Ok(())
    }
}
impl serde::ser::SerializeTuple for SeqSer<'_> {
    type Ok = ();
    type Error = MiniJsonError;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), MiniJsonError> {
        serde::ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<(), MiniJsonError> {
        serde::ser::SerializeSeq::end(self)
    }
}
impl serde::ser::SerializeTupleStruct for SeqSer<'_> {
    type Ok = ();
    type Error = MiniJsonError;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), MiniJsonError> {
        serde::ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<(), MiniJsonError> {
        serde::ser::SerializeSeq::end(self)
    }
}
impl serde::ser::SerializeTupleVariant for SeqSer<'_> {
    type Ok = ();
    type Error = MiniJsonError;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), MiniJsonError> {
        serde::ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<(), MiniJsonError> {
        serde::ser::SerializeSeq::end(self)
    }
}

struct MapSer<'a> {
    ser: &'a mut MiniJson,
    first: bool,
    close: &'static str,
}

impl MapSer<'_> {
    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.ser.out.push(',');
        }
    }
}

impl serde::ser::SerializeMap for MapSer<'_> {
    type Ok = ();
    type Error = MiniJsonError;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), MiniJsonError> {
        self.sep();
        // JSON keys must be strings; serialize then coerce.
        let mut tmp = MiniJson::default();
        key.serialize(&mut tmp)?;
        if tmp.out.starts_with('"') {
            self.ser.out.push_str(&tmp.out);
        } else {
            self.ser.out.push_str(&esc(&tmp.out));
        }
        Ok(())
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), MiniJsonError> {
        self.ser.out.push(':');
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<(), MiniJsonError> {
        self.ser.out.push_str(self.close);
        Ok(())
    }
}
impl serde::ser::SerializeStruct for MapSer<'_> {
    type Ok = ();
    type Error = MiniJsonError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), MiniJsonError> {
        self.sep();
        self.ser.out.push_str(&esc(key));
        self.ser.out.push(':');
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<(), MiniJsonError> {
        self.ser.out.push_str(self.close);
        Ok(())
    }
}
impl serde::ser::SerializeStructVariant for MapSer<'_> {
    type Ok = ();
    type Error = MiniJsonError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), MiniJsonError> {
        serde::ser::SerializeStruct::serialize_field(self, key, value)
    }
    fn end(self) -> Result<(), MiniJsonError> {
        serde::ser::SerializeStruct::end(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct Ev {
        node: u32,
        kind: &'static str,
    }

    // Hand-written (derive unavailable offline, see vendor/README.md).
    impl Serialize for Ev {
        fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            use serde::ser::SerializeStruct;
            let mut st = serializer.serialize_struct("Ev", 2)?;
            st.serialize_field("node", &self.node)?;
            st.serialize_field("kind", &self.kind)?;
            st.end()
        }
    }

    #[test]
    fn records_in_order_and_iterates() {
        let mut t = Trace::new();
        t.record(SimTime::from_ns(1), Ev { node: 0, kind: "a" });
        t.record(SimTime::from_ns(5), Ev { node: 1, kind: "b" });
        assert_eq!(t.len(), 2);
        let kinds: Vec<_> = t.iter().map(|(_, e)| e.kind).collect();
        assert_eq!(kinds, ["a", "b"]);
    }

    #[test]
    fn window_filters_half_open() {
        let mut t = Trace::new();
        for i in 0..10u64 {
            t.record(SimTime::from_ns(i * 10), i);
        }
        let in_window: Vec<_> = t
            .window(SimTime::from_ns(20), SimTime::from_ns(50))
            .map(|(_, e)| *e)
            .collect();
        assert_eq!(in_window, vec![2, 3, 4]);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record(SimTime::ZERO, 1u8);
        assert!(t.is_empty());
        t.set_enabled(true);
        t.record(SimTime::ZERO, 2u8);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn json_output_structs_and_enums() {
        enum K {
            Unit,
            Tuple(u8, u8),
            Struct { x: i32 },
        }

        // Hand-written (derive unavailable offline, see vendor/README.md).
        impl Serialize for K {
            fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                use serde::ser::{SerializeStructVariant, SerializeTupleVariant};
                match self {
                    K::Unit => serializer.serialize_unit_variant("K", 0, "Unit"),
                    K::Tuple(a, b) => {
                        let mut tv = serializer.serialize_tuple_variant("K", 1, "Tuple", 2)?;
                        tv.serialize_field(a)?;
                        tv.serialize_field(b)?;
                        tv.end()
                    }
                    K::Struct { x } => {
                        let mut sv = serializer.serialize_struct_variant("K", 2, "Struct", 1)?;
                        sv.serialize_field("x", x)?;
                        sv.end()
                    }
                }
            }
        }
        let mut t = Trace::new();
        t.record(SimTime::from_ns(3), K::Unit);
        t.record(SimTime::from_ns(4), K::Tuple(1, 2));
        t.record(SimTime::from_ns(5), K::Struct { x: -7 });
        let json = t.to_json();
        assert_eq!(
            json,
            r#"[{"t_ns":3,"event":"Unit"},{"t_ns":4,"event":{"Tuple":[1,2]}},{"t_ns":5,"event":{"Struct":{"x":-7}}}]"#
        );
    }

    #[test]
    fn json_escapes_strings() {
        let mut t = Trace::new();
        t.record(SimTime::ZERO, "he said \"hi\"\n".to_string());
        assert_eq!(t.to_json(), r#"[{"t_ns":0,"event":"he said \"hi\"\n"}]"#);
    }

    #[test]
    fn merge_interleaves_by_time_with_stable_ties() {
        let mut a = Trace::new();
        a.record(SimTime::from_ns(1), "a1");
        a.record(SimTime::from_ns(5), "a5");
        a.record(SimTime::from_ns(5), "a5b");
        let mut b = Trace::new();
        b.record(SimTime::from_ns(1), "b1");
        b.record(SimTime::from_ns(3), "b3");
        let merged = Trace::merge(vec![a, b]);
        let got: Vec<_> = merged.iter().map(|(t, e)| (t.as_ns(), *e)).collect();
        // Equal times: trace 0 before trace 1; within a trace, record order.
        assert_eq!(
            got,
            vec![(1, "a1"), (1, "b1"), (3, "b3"), (5, "a5"), (5, "a5b")]
        );
    }

    #[test]
    fn clear_and_into_events() {
        let mut t = Trace::new();
        t.record(SimTime::ZERO, 1u8);
        t.clear();
        assert!(t.is_empty());
        t.record(SimTime::from_ns(9), 2u8);
        let evs = t.into_events();
        assert_eq!(evs, vec![(SimTime::from_ns(9), 2u8)]);
    }
}
