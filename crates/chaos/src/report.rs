//! What every scenario family returns, and the fault injector every
//! family drives.
//!
//! A [`Report`] is the run as a human reads it: a title line naming the
//! family and the seed, the fault schedule as executed, the family's own
//! body lines (history, counters, transitions), the verdict, and a tail
//! (rendered traces and metrics). One `render`, one `fingerprint`, one
//! `ok`; a failing seed reproduces byte-identically through all three.

use std::cell::RefCell;
use std::rc::Rc;

use pcsi_net::{Fabric, MessageFaults, NodeId};
use pcsi_sim::SimHandle;

/// Everything one scenario produced, sufficient to reproduce and explain
/// a failure.
#[derive(Debug)]
pub struct Report {
    /// The first rendered line: the scenario family, the seed, and
    /// whatever else selected the run.
    pub title: String,
    /// The seed that drove the run.
    pub seed: u64,
    /// The fault schedule as executed, one `t=<ns>ns <what>` per event.
    pub faults: Vec<String>,
    /// The family's own lines: what ran and what it counted.
    pub body: String,
    /// Contract violations; empty means the run upheld the contract.
    pub violations: Vec<String>,
    /// What follows the verdict: a violating operation's span tree, the
    /// deployment's end-of-run metrics snapshot.
    pub tail: String,
}

impl Report {
    /// True when no check found a violation.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Stable, complete rendering: identical seeds and configs produce
    /// identical bytes.
    pub fn render(&self) -> String {
        let mut out = format!("{}\n", self.title);
        for f in &self.faults {
            out.push_str(&format!("fault {f}\n"));
        }
        out.push_str(&self.body);
        if self.violations.is_empty() {
            out.push_str("verdict ok\n");
        }
        for v in &self.violations {
            out.push_str(&format!("violation {v}\n"));
        }
        out.push_str(&self.tail);
        out
    }

    /// FNV-1a of [`Report::render`]; two runs of the same seed must
    /// fingerprint identically.
    pub fn fingerprint(&self) -> u64 {
        pcsi_metrics::fingerprint(&self.render())
    }

    /// The sum of every `key=<n>` and `key <n>` in the body: how a sweep
    /// reads a counter (`dropped`, `retries`, `client-errors`, `ops`,
    /// `stalls`, `dups`) out of the lines a human reads.
    ///
    /// # Panics
    ///
    /// Panics when the body holds no such counter: a renamed line must
    /// fail the sweep that reads it, not hand it a zero.
    pub fn count(&self, key: &str) -> u64 {
        let mut words = self.body.split_whitespace().peekable();
        let mut sum = None;
        while let Some(word) = words.next() {
            let n: Option<u64> = match word.split_once('=') {
                Some((k, n)) if k == key => n.parse().ok(),
                None if word == key => words.peek().and_then(|n| n.parse().ok()),
                _ => None,
            };
            if let Some(n) = n {
                sum = Some(sum.unwrap_or(0) + n);
            }
        }
        sum.unwrap_or_else(|| panic!("no `{key}` counter in the report body:\n{}", self.body))
    }
}

/// The `net …` body line: what message-level fault injection did.
pub(crate) fn net_line(fabric: &Fabric) -> String {
    format!(
        "net dropped={} duplicated={} delayed={}\n",
        fabric.messages_dropped(),
        fabric.messages_duplicated(),
        fabric.messages_delayed()
    )
}

/// The fault injector: every call changes the fabric and logs the one
/// line the report's schedule shows for it.
#[derive(Clone)]
pub(crate) struct Faults {
    pub(crate) h: SimHandle,
    pub(crate) fabric: Fabric,
    log: Rc<RefCell<Vec<String>>>,
    /// Per node, how many times it has gone down or come back up.
    flips: Rc<RefCell<Vec<u64>>>,
}

impl Faults {
    pub(crate) fn new(h: &SimHandle, fabric: &Fabric) -> Self {
        Faults {
            h: h.clone(),
            fabric: fabric.clone(),
            log: Rc::default(),
            flips: Rc::new(RefCell::new(vec![0; fabric.topology().node_ids().len()])),
        }
    }

    /// Logs an event something else carried out.
    pub(crate) fn note(&self, what: impl std::fmt::Display) {
        let line = format!("t={}ns {what}", self.h.now().as_nanos());
        self.log.borrow_mut().push(line);
    }

    fn set_down(&self, node: NodeId, down: bool) {
        self.fabric.set_node_down(node, down);
        let flips = &mut self.flips.borrow_mut()[node.0 as usize];
        if (*flips % 2 == 1) != down {
            *flips += 1;
        }
    }

    /// How many times `node` has gone down or come back up so far: odd
    /// while it is down, and unchanged across a span of time exactly when
    /// the node's state never changed in it.
    pub(crate) fn flips(&self, node: NodeId) -> u64 {
        self.flips.borrow()[node.0 as usize]
    }

    pub(crate) fn crash(&self, node: NodeId) {
        self.set_down(node, true);
        self.note(format_args!("crash {node}"));
    }

    pub(crate) fn restart(&self, node: NodeId) {
        self.set_down(node, false);
        self.note(format_args!("restart {node}"));
    }

    /// Drops every fabric message with probability `p`, nothing else.
    pub(crate) fn drops(&self, p: f64) {
        self.fabric.set_message_faults(MessageFaults {
            drop: p,
            ..MessageFaults::NONE
        });
        self.note(format_args!("message-faults drop={p:.3}"));
    }

    /// Cuts `node` off from every other node.
    pub(crate) fn isolate(&self, node: NodeId) {
        let mut rest = self.fabric.topology().node_ids();
        rest.retain(|&n| n != node);
        self.fabric.partition(&[node], &rest);
        self.note(format_args!("isolate {node}"));
    }

    pub(crate) fn heal_partitions(&self) {
        self.fabric.heal_partitions();
        self.note("heal-partitions");
    }

    /// Every node up, every partition healed, every message fault
    /// cleared.
    pub(crate) fn heal_all(&self) {
        for node in self.fabric.topology().node_ids() {
            self.set_down(node, false);
        }
        self.fabric.heal_partitions();
        self.fabric.clear_message_faults();
        self.note("heal-all");
    }

    /// The schedule so far.
    pub(crate) fn log(&self) -> Vec<String> {
        self.log.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::Report;

    fn report(body: &str) -> Report {
        Report {
            title: "t".into(),
            seed: 0,
            faults: Vec::new(),
            body: body.into(),
            violations: Vec::new(),
            tail: String::new(),
        }
    }

    #[test]
    fn count_reads_both_spellings_and_sums_repeats() {
        let r = report(
            "ops 3\nsub 0 dups=2 close=open\nsub 1 dups=5 close=open\nrecovery client-errors=0\n",
        );
        assert_eq!(r.count("ops"), 3);
        assert_eq!(r.count("dups"), 7);
        assert_eq!(r.count("client-errors"), 0);
    }

    #[test]
    #[should_panic(expected = "no `client-errors` counter in the report body")]
    fn count_refuses_a_counter_the_body_does_not_hold() {
        // `close=open` is a key without a number; `errors` is another key.
        report("ops 3\nsub 0 close=open\nrecovery errors=0\n").count("client-errors");
    }
}
