//! Request/response vocabulary for the serving pipeline.
//!
//! Every operation the pipeline serves — closed-loop or from an open-loop
//! driver — is expressed as a [`Verb`]. A [`Verb`]
//! plus the caller's submit timestamp forms a [`Request`]; the executed result
//! comes back as a [`Response`] carrying the [`Reply`] payload and the three
//! timestamps (submit, enqueue, done) that make both coordinated-omission-aware
//! and service-time-only latency measurable from the same run.

/// One operation against the ordered-KV service. Keys and values are `u64`
/// (the wire plane fixes `V = u64`; the structures underneath stay generic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verb {
    /// Point lookup: value stored under the key, if any.
    Get(u64),
    /// Point insert: `(key, value)`; replies whether the key was newly inserted.
    Insert(u64, u64),
    /// Point remove: replies with the removed value, if the key was present.
    Remove(u64),
    /// Ordered query: greatest entry with key `<=` the argument.
    Predecessor(u64),
    /// Ordered query: least entry with key `>=` the argument.
    Successor(u64),
    /// Range scan: up to `limit` entries with keys `>= from`, ascending.
    Scan {
        /// Inclusive lower bound of the scan.
        from: u64,
        /// Maximum number of entries returned.
        limit: usize,
    },
    /// Priority-queue pop: remove and return the least entry.
    PopFirst,
    /// Priority-queue pop: remove and return the greatest entry.
    PopLast,
    /// Bulk insert; replies with the number of keys newly inserted.
    InsertBatch(Vec<(u64, u64)>),
    /// Bulk remove; replies with the number of keys actually removed.
    RemoveBatch(Vec<u64>),
    /// Bulk lookup; replies with each key's value, in input order.
    GetBatch(Vec<u64>),
}

/// Latency class a [`Verb`] is accounted under. The serving pipeline keeps one
/// histogram per class (see [`crate::Service::virtual_latency`]) so tail
/// behaviour of cheap point ops is not averaged away by scans and pops.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Single-key get/insert/remove.
    Point,
    /// Predecessor/successor queries.
    Ordered,
    /// Range scans.
    Range,
    /// `pop_first` / `pop_last` (contended-minimum workloads).
    Pop,
    /// Caller-supplied bulk verbs (`InsertBatch` / `RemoveBatch` / `GetBatch`).
    Batch,
}

impl OpClass {
    /// Every class, in the order used for latency-table rows.
    pub const ALL: [OpClass; 5] = [
        OpClass::Point,
        OpClass::Ordered,
        OpClass::Range,
        OpClass::Pop,
        OpClass::Batch,
    ];

    /// Stable lowercase label (column/row key in reports and JSON).
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Point => "point",
            OpClass::Ordered => "ordered",
            OpClass::Range => "range",
            OpClass::Pop => "pop",
            OpClass::Batch => "batch",
        }
    }

    /// Index of this class within [`OpClass::ALL`] (and within the pipeline's
    /// `LatencyClasses` recorders).
    pub fn index(self) -> usize {
        self as usize
    }

    /// All five labels, matching [`OpClass::ALL`] order.
    pub fn labels() -> [&'static str; 5] {
        [
            OpClass::Point.label(),
            OpClass::Ordered.label(),
            OpClass::Range.label(),
            OpClass::Pop.label(),
            OpClass::Batch.label(),
        ]
    }
}

impl Verb {
    /// The latency class this verb is recorded under.
    pub fn class(&self) -> OpClass {
        match self {
            Verb::Get(_) | Verb::Insert(_, _) | Verb::Remove(_) => OpClass::Point,
            Verb::Predecessor(_) | Verb::Successor(_) => OpClass::Ordered,
            Verb::Scan { .. } => OpClass::Range,
            Verb::PopFirst | Verb::PopLast => OpClass::Pop,
            Verb::InsertBatch(_) | Verb::RemoveBatch(_) | Verb::GetBatch(_) => OpClass::Batch,
        }
    }

    /// Key used to pick the owning shard. Ordered and range verbs route by
    /// their probe key (the worker then steps across shards read-only via the
    /// router); fenced verbs ([`OpClass::Pop`] / [`OpClass::Batch`]) execute on
    /// the submitting thread and return `None`.
    pub fn routing_key(&self) -> Option<u64> {
        match self {
            Verb::Get(k)
            | Verb::Insert(k, _)
            | Verb::Remove(k)
            | Verb::Predecessor(k)
            | Verb::Successor(k) => Some(*k),
            Verb::Scan { from, .. } => Some(*from),
            Verb::PopFirst
            | Verb::PopLast
            | Verb::InsertBatch(_)
            | Verb::RemoveBatch(_)
            | Verb::GetBatch(_) => None,
        }
    }
}

/// A [`Verb`] stamped with the moment the caller *intended* to send it.
///
/// Under open-loop load `submit_ns` is the **virtual send time** from the
/// arrival schedule, not the instant `submit` was called — that distinction is
/// what lets the pipeline report coordinated-omission-inclusive latency.
#[derive(Clone, Debug)]
pub struct Request {
    /// The operation to execute.
    pub verb: Verb,
    /// Virtual send time, in nanoseconds on the service clock
    /// ([`crate::Service::now_ns`]).
    pub submit_ns: u64,
}

/// Result payload of an executed [`Verb`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// From [`Verb::Insert`]: `true` iff the key was newly inserted.
    Inserted(bool),
    /// From [`Verb::Remove`]: the removed value, if present.
    Removed(Option<u64>),
    /// From [`Verb::Get`]: the value under the key, if present.
    Value(Option<u64>),
    /// From predecessor/successor/pop verbs: the affected entry, if any.
    Entry(Option<(u64, u64)>),
    /// From [`Verb::Scan`]: the entries found, ascending by key.
    Entries(Vec<(u64, u64)>),
    /// From [`Verb::InsertBatch`] / [`Verb::RemoveBatch`]: how many keys were
    /// inserted/removed.
    Count(usize),
    /// From [`Verb::GetBatch`]: the value under each key, if present, in input
    /// order.
    Values(Vec<Option<u64>>),
}

/// A completed request: the reply plus the per-request sequence number and the
/// three timestamps latency accounting needs.
#[derive(Clone, Debug)]
pub struct Response {
    /// Per-connection sequence number assigned at submit, starting from 0.
    pub seq: u64,
    /// The operation's result.
    pub reply: Reply,
    /// Latency class the request was recorded under.
    pub class: OpClass,
    /// Virtual send time copied from the [`Request`].
    pub submit_ns: u64,
    /// When the request was accepted into a shard mailbox (service clock).
    pub enqueue_ns: u64,
    /// When the shard worker finished executing it (service clock).
    pub done_ns: u64,
}

impl Response {
    /// Coordinated-omission-inclusive latency: completion minus *virtual* send
    /// time. Under overload this keeps growing with the backlog.
    pub fn virtual_latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.submit_ns)
    }

    /// Service-time-only latency: completion minus mailbox admission. This is
    /// the figure a closed-loop harness would (misleadingly) report alone.
    pub fn service_latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.enqueue_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_all_verbs_and_labels_are_stable() {
        assert_eq!(Verb::Get(1).class(), OpClass::Point);
        assert_eq!(Verb::Insert(1, 2).class(), OpClass::Point);
        assert_eq!(Verb::Remove(1).class(), OpClass::Point);
        assert_eq!(Verb::Predecessor(1).class(), OpClass::Ordered);
        assert_eq!(Verb::Successor(1).class(), OpClass::Ordered);
        assert_eq!(Verb::Scan { from: 0, limit: 4 }.class(), OpClass::Range);
        assert_eq!(Verb::PopFirst.class(), OpClass::Pop);
        assert_eq!(Verb::PopLast.class(), OpClass::Pop);
        assert_eq!(Verb::InsertBatch(vec![]).class(), OpClass::Batch);
        assert_eq!(Verb::RemoveBatch(vec![]).class(), OpClass::Batch);
        assert_eq!(Verb::GetBatch(vec![]).class(), OpClass::Batch);
        assert_eq!(
            OpClass::labels(),
            ["point", "ordered", "range", "pop", "batch"]
        );
        for (i, class) in OpClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i);
        }
    }

    #[test]
    fn routing_keys_follow_the_probe_key() {
        assert_eq!(Verb::Get(7).routing_key(), Some(7));
        assert_eq!(Verb::Scan { from: 9, limit: 1 }.routing_key(), Some(9));
        assert_eq!(Verb::PopFirst.routing_key(), None);
        assert_eq!(Verb::InsertBatch(vec![(1, 1)]).routing_key(), None);
    }

    #[test]
    fn latency_views_saturate_rather_than_wrap() {
        let r = Response {
            seq: 0,
            reply: Reply::Value(None),
            class: OpClass::Point,
            submit_ns: 100,
            enqueue_ns: 40,
            done_ns: 90,
        };
        // Virtual send time can postdate completion when the driver catches up
        // on a backlog; latency clamps to zero instead of wrapping.
        assert_eq!(r.virtual_latency_ns(), 0);
        assert_eq!(r.service_latency_ns(), 50);
    }
}
