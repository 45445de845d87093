//! Time-ordered simulation events.

use std::cmp::Ordering;

use sws_model::numeric::order_all;

/// What happens at an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A task starts executing on a processor.
    Start,
    /// A task finishes executing on a processor.
    Finish,
}

/// One simulation event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulation time of the event. Events built by the replay engine
    /// inherit finiteness from `TimedSchedule::new`'s validation (and
    /// task times are validated at `TaskSet` construction), so on the
    /// engine path this is always finite; the [`Ord`] impl still
    /// tolerates arbitrary bits because deserialized traces bypass that
    /// validation.
    pub time: f64,
    /// Task concerned.
    pub task: usize,
    /// Processor concerned.
    pub proc: usize,
    /// Start or finish.
    pub kind: EventKind,
}

impl Event {
    /// Creates a start event.
    pub fn start(time: f64, task: usize, proc: usize) -> Self {
        Event {
            time,
            task,
            proc,
            kind: EventKind::Start,
        }
    }

    /// Creates a finish event.
    pub fn finish(time: f64, task: usize, proc: usize) -> Self {
        Event {
            time,
            task,
            proc,
            kind: EventKind::Finish,
        }
    }
}

impl Eq for Event {}

impl Ord for Event {
    /// Events are ordered by time; at equal times finishes are processed
    /// before starts (so a processor freed at `t` can host a task starting
    /// at `t`), and ties after that break by task index for determinism.
    ///
    /// Times compare under the IEEE-754 total order
    /// ([`sws_model::numeric::order_all`]): `Ord`'s contract must hold
    /// for *any* bits a deserialized trace can carry, and a panic here
    /// would fire from inside a sort or `BinaryHeap` sift mid-replay.
    /// A NaN time therefore sorts (deterministically, after `+∞`)
    /// instead of aborting; schedule validation, not the event queue,
    /// is where non-finite times are diagnosed.
    fn cmp(&self, other: &Self) -> Ordering {
        order_all(self.time, other.time)
            .then_with(|| kind_rank(self.kind).cmp(&kind_rank(other.kind)))
            .then_with(|| self.task.cmp(&other.task))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn kind_rank(kind: EventKind) -> u8 {
    match kind {
        EventKind::Finish => 0,
        EventKind::Start => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_sort_by_time() {
        let mut events = [
            Event::start(2.0, 0, 0),
            Event::finish(1.0, 1, 0),
            Event::start(0.5, 2, 1),
        ];
        events.sort();
        assert_eq!(events[0].task, 2);
        assert_eq!(events[1].task, 1);
        assert_eq!(events[2].task, 0);
    }

    #[test]
    fn finish_precedes_start_at_the_same_time() {
        let mut events = [Event::start(1.0, 0, 0), Event::finish(1.0, 1, 0)];
        events.sort();
        assert_eq!(events[0].kind, EventKind::Finish);
        assert_eq!(events[1].kind, EventKind::Start);
    }

    #[test]
    fn equal_time_and_kind_break_ties_by_task() {
        let mut events = [Event::start(1.0, 5, 0), Event::start(1.0, 3, 1)];
        events.sort();
        assert_eq!(events[0].task, 3);
    }

    #[test]
    fn non_finite_times_sort_instead_of_panicking() {
        // A corrupted trace must not abort mid-sort: NaN lands last
        // (above +∞ under the IEEE total order), deterministically.
        let mut events = [
            Event::start(f64::NAN, 0, 0),
            Event::start(1.0, 1, 0),
            Event::finish(f64::INFINITY, 2, 0),
            Event::start(-0.0, 3, 0),
            Event::finish(0.0, 4, 0),
        ];
        events.sort();
        let order: Vec<usize> = events.iter().map(|e| e.task).collect();
        // -0.0 strictly precedes +0.0 under totalOrder, so task 3's
        // start beats task 4's finish despite the kind rank.
        assert_eq!(order, vec![3, 4, 1, 2, 0]);
        // The comparison is a total order even among NaNs.
        let a = Event::start(f64::NAN, 0, 0);
        let b = Event::start(f64::NAN, 1, 0);
        assert_eq!(a.cmp(&b), Ordering::Less);
        assert_eq!(b.cmp(&a), Ordering::Greater);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }
}
