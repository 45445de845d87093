//! Pareto dominance and Pareto-front maintenance in the `(Cmax, Mmax)`
//! objective space.
//!
//! The paper's inapproximability arguments (Section 4) enumerate the
//! Pareto-optimal schedules of small adversarial instances; the exact
//! solver uses this module to maintain those fronts, and the figure
//! harness uses it to emit them.

use crate::numeric::{approx_eq, approx_le, strictly_lt};
use crate::objectives::ObjectivePoint;

/// Returns `true` when `a` dominates `b`: `a` is no worse on both
/// objectives and strictly better on at least one.
pub fn dominates(a: &ObjectivePoint, b: &ObjectivePoint) -> bool {
    let no_worse = approx_le(a.cmax, b.cmax) && approx_le(a.mmax, b.mmax);
    let strictly_better = strictly_lt(a.cmax, b.cmax) || strictly_lt(a.mmax, b.mmax);
    no_worse && strictly_better
}

/// Returns `true` when the two points are equal up to tolerance.
pub fn equivalent(a: &ObjectivePoint, b: &ObjectivePoint) -> bool {
    approx_eq(a.cmax, b.cmax) && approx_eq(a.mmax, b.mmax)
}

/// A Pareto front of objective points, each optionally tagged with a
/// payload (e.g. the schedule that achieved it).
#[derive(Debug, Clone)]
pub struct ParetoFront<T = ()> {
    entries: Vec<(ObjectivePoint, T)>,
}

impl<T> Default for ParetoFront<T> {
    fn default() -> Self {
        ParetoFront {
            entries: Vec::new(),
        }
    }
}

impl<T> ParetoFront<T> {
    /// Creates an empty front.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of non-dominated points currently stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the front is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Offers a point to the front. The point is inserted iff no stored
    /// point dominates it (or equals it); stored points dominated by the
    /// new point are removed. Returns `true` when the point was inserted.
    ///
    /// Among `equivalent` ties the **incumbent wins** — the payload kept
    /// for a front point is the first one offered, so the result depends
    /// on offer order. When that matters (the ∆-sweeps tag points with
    /// the parameter that produced them), use [`ParetoFront::offer_with`]
    /// and supply an explicit, order-independent tie-break.
    pub fn offer(&mut self, point: ObjectivePoint, payload: T) -> bool {
        self.offer_with(point, payload, |_, _| false)
    }

    /// Like [`ParetoFront::offer`], but with an explicit tie-break among
    /// `equivalent` points: when the offered point ties an incumbent
    /// (equal on both objectives up to tolerance), `replace_tie(new
    /// payload, incumbent payload)` decides whether the incumbent is
    /// replaced (`true`) or the offer is rejected (`false`). A hook that
    /// imposes a strict total order on payloads (e.g. "prefer the
    /// smaller ∆") makes the payload kept for a front point independent
    /// of the order in which its tied runs were offered.
    ///
    /// The tolerant equivalence relation is not transitive, so a point
    /// may tie *several* mutually non-equivalent incumbents; the offer is
    /// accepted only when it beats **all** of them (and then replaces all
    /// of them), so no two equivalent points ever coexist on the front.
    /// Because such tolerance chains make acceptance depend on which
    /// points are already stored, the *surviving point set* can still
    /// vary with offer order in sub-tolerance scenarios — callers that
    /// need reproducible curves must offer in a fixed order (the ∆-sweeps
    /// always merge in grid order). Dominance always takes precedence
    /// over the tie-break: a point dominated by any incumbent is rejected
    /// outright.
    pub fn offer_with<F>(&mut self, point: ObjectivePoint, payload: T, replace_tie: F) -> bool
    where
        F: FnMut(&T, &T) -> bool,
    {
        let mut replace_tie = replace_tie;
        if self
            .entries
            .iter()
            .any(|(existing, _)| dominates(existing, &point))
        {
            return false;
        }
        let ties: Vec<usize> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, (existing, _))| equivalent(existing, &point))
            .map(|(idx, _)| idx)
            .collect();
        if ties
            .iter()
            .any(|&idx| !replace_tie(&payload, &self.entries[idx].1))
        {
            return false;
        }
        for &idx in ties.iter().rev() {
            self.entries.remove(idx);
        }
        self.entries
            .retain(|(existing, _)| !dominates(&point, existing));
        self.entries.push((point, payload));
        true
    }

    /// Iterates over the stored `(point, payload)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&ObjectivePoint, &T)> {
        self.entries.iter().map(|(p, t)| (p, t))
    }

    /// The stored points, sorted by increasing makespan.
    pub fn points(&self) -> Vec<ObjectivePoint> {
        let mut pts: Vec<ObjectivePoint> = self.entries.iter().map(|(p, _)| *p).collect();
        pts.sort_by(|a, b| crate::numeric::total_cmp(a.cmax, b.cmax));
        pts
    }

    /// Consumes the front and returns `(point, payload)` pairs sorted by
    /// increasing makespan.
    pub fn into_sorted(mut self) -> Vec<(ObjectivePoint, T)> {
        self.entries
            .sort_by(|a, b| crate::numeric::total_cmp(a.0.cmax, b.0.cmax));
        self.entries
    }

    /// Returns the entry minimizing `Cmax` (ties broken by `Mmax`).
    pub fn best_cmax(&self) -> Option<&(ObjectivePoint, T)> {
        self.entries.iter().min_by(|a, b| {
            crate::numeric::total_cmp(a.0.cmax, b.0.cmax)
                .then(crate::numeric::total_cmp(a.0.mmax, b.0.mmax))
        })
    }

    /// Returns the entry minimizing `Mmax` (ties broken by `Cmax`).
    pub fn best_mmax(&self) -> Option<&(ObjectivePoint, T)> {
        self.entries.iter().min_by(|a, b| {
            crate::numeric::total_cmp(a.0.mmax, b.0.mmax)
                .then(crate::numeric::total_cmp(a.0.cmax, b.0.cmax))
        })
    }

    /// True when some stored point weakly dominates `point`.
    pub fn covers(&self, point: &ObjectivePoint) -> bool {
        self.entries
            .iter()
            .any(|(p, _)| p.weakly_dominates(point) || equivalent(p, point))
    }
}

impl<T> FromIterator<(ObjectivePoint, T)> for ParetoFront<T> {
    fn from_iter<I: IntoIterator<Item = (ObjectivePoint, T)>>(iter: I) -> Self {
        let mut front = ParetoFront::new();
        for (p, t) in iter {
            front.offer(p, t);
        }
        front
    }
}

/// The ideal (utopia) point of a set of points: component-wise minimum.
/// Used to normalize empirical trade-off curves.
pub fn ideal_point(points: &[ObjectivePoint]) -> Option<ObjectivePoint> {
    if points.is_empty() {
        return None;
    }
    Some(ObjectivePoint {
        cmax: points.iter().map(|p| p.cmax).fold(f64::INFINITY, f64::min),
        mmax: points.iter().map(|p| p.mmax).fold(f64::INFINITY, f64::min),
    })
}

/// The nadir point of a set of points: component-wise maximum over the
/// Pareto-optimal subset.
pub fn nadir_point(points: &[ObjectivePoint]) -> Option<ObjectivePoint> {
    let front: ParetoFront<()> = points.iter().map(|&p| (p, ())).collect();
    if front.is_empty() {
        return None;
    }
    let pts = front.points();
    Some(ObjectivePoint {
        cmax: pts.iter().map(|p| p.cmax).fold(0.0, f64::max),
        mmax: pts.iter().map(|p| p.mmax).fold(0.0, f64::max),
    })
}

/// Hypervolume indicator of a point set with respect to a reference
/// point: the area of the objective-space region dominated by the set and
/// dominating the reference (larger is better). Points that do not
/// dominate the reference contribute nothing; an empty set has
/// hypervolume 0. Used by the experiments to compare ∆-sweep trade-off
/// curves against exact Pareto fronts with a single scalar.
pub fn hypervolume(points: &[ObjectivePoint], reference: &ObjectivePoint) -> f64 {
    // Reduce to the non-dominated subset, sorted by increasing Cmax (and
    // therefore decreasing Mmax).
    let front: ParetoFront<()> = points.iter().map(|&p| (p, ())).collect();
    let mut pts: Vec<ObjectivePoint> = front
        .points()
        .into_iter()
        .filter(|p| p.cmax < reference.cmax && p.mmax < reference.mmax)
        .collect();
    pts.sort_by(|a, b| crate::numeric::total_cmp(a.cmax, b.cmax));
    let mut area = 0.0;
    let mut prev_mmax = reference.mmax;
    for p in pts {
        let width = reference.cmax - p.cmax;
        let height = prev_mmax - p.mmax;
        if height > 0.0 && width > 0.0 {
            area += width * height;
            prev_mmax = p.mmax;
        }
    }
    area
}

/// Multiplicative coverage of a candidate point set by a reference front:
/// the smallest factor `α ≥ 1` such that scaling every reference point by
/// `α` on both objectives makes it dominate some candidate point — i.e.
/// how far the candidate set is from being an `α`-approximate Pareto set
/// of the reference. Returns `None` when either set is empty.
pub fn approximation_factor(
    candidates: &[ObjectivePoint],
    reference: &[ObjectivePoint],
) -> Option<f64> {
    if candidates.is_empty() || reference.is_empty() {
        return None;
    }
    let mut worst: f64 = 1.0;
    for r in reference {
        // The candidate that approximates r best (smallest needed factor).
        let best = candidates
            .iter()
            .map(|c| {
                let fc = if r.cmax > 0.0 {
                    c.cmax / r.cmax
                } else if c.cmax > 0.0 {
                    f64::INFINITY
                } else {
                    1.0
                };
                let fm = if r.mmax > 0.0 {
                    c.mmax / r.mmax
                } else if c.mmax > 0.0 {
                    f64::INFINITY
                } else {
                    1.0
                };
                fc.max(fm).max(1.0)
            })
            .fold(f64::INFINITY, f64::min);
        worst = worst.max(best);
    }
    Some(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(c: f64, m: f64) -> ObjectivePoint {
        ObjectivePoint::new(c, m)
    }

    #[test]
    fn dominance_requires_strict_improvement_somewhere() {
        assert!(dominates(&p(1.0, 1.0), &p(2.0, 1.0)));
        assert!(dominates(&p(1.0, 1.0), &p(1.0, 2.0)));
        assert!(!dominates(&p(1.0, 1.0), &p(1.0, 1.0)));
        assert!(!dominates(&p(1.0, 3.0), &p(2.0, 1.0)));
    }

    #[test]
    fn front_keeps_only_non_dominated_points() {
        let mut front = ParetoFront::new();
        assert!(front.offer(p(1.0, 2.0), "a"));
        assert!(front.offer(p(1.5, 1.0), "b"));
        // Dominated by "a".
        assert!(!front.offer(p(2.0, 2.5), "c"));
        // Dominates "a".
        assert!(front.offer(p(0.5, 1.5), "d"));
        let points = front.points();
        assert_eq!(front.len(), 2);
        assert!(points.iter().any(|q| equivalent(q, &p(0.5, 1.5))));
        assert!(points.iter().any(|q| equivalent(q, &p(1.5, 1.0))));
    }

    #[test]
    fn duplicate_points_are_not_inserted_twice() {
        let mut front = ParetoFront::new();
        assert!(front.offer(p(1.0, 1.0), ()));
        assert!(!front.offer(p(1.0, 1.0 + 1e-13), ()));
        assert_eq!(front.len(), 1);
    }

    #[test]
    fn offer_keeps_the_first_payload_among_ties() {
        let mut front = ParetoFront::new();
        assert!(front.offer(p(1.0, 1.0), 7usize));
        assert!(!front.offer(p(1.0, 1.0), 3usize));
        assert_eq!(front.iter().next().unwrap().1, &7);
    }

    #[test]
    fn offer_with_resolves_ties_by_the_supplied_hook() {
        // "Prefer the smaller payload" makes the stored payload
        // independent of offer order.
        let prefer_smaller = |new: &usize, old: &usize| new < old;
        for payloads in [[7usize, 3, 5], [3, 5, 7], [5, 7, 3]] {
            let mut front = ParetoFront::new();
            for payload in payloads {
                front.offer_with(p(1.0, 1.0), payload, prefer_smaller);
            }
            assert_eq!(front.len(), 1);
            assert_eq!(front.iter().next().unwrap().1, &3);
        }
    }

    #[test]
    fn offer_with_handles_non_transitive_tolerance_chains() {
        // A and B are mutually non-dominated and NOT equivalent (each
        // coordinate gap exceeds the 1e-9 relative tolerance), yet X sits
        // between them and is equivalent to both.
        let a = p(1.0, 1.0);
        let b = p(1.0 + 1.6e-9, 1.0 - 1.6e-9);
        let x = p(1.0 + 0.8e-9, 1.0 - 0.8e-9);
        assert!(!equivalent(&a, &b) && !dominates(&a, &b) && !dominates(&b, &a));
        assert!(equivalent(&x, &a) && equivalent(&x, &b));

        let prefer_smaller = |new: &f64, old: &f64| new < old;
        let mut front = ParetoFront::new();
        assert!(front.offer_with(a, 3.0, prefer_smaller));
        assert!(front.offer_with(b, 2.0, prefer_smaller));
        assert_eq!(front.len(), 2);
        // X loses to one of its two tied incumbents: rejected outright.
        let mut rejected = front.clone();
        assert!(!rejected.offer_with(x, 2.5, prefer_smaller));
        assert_eq!(rejected.len(), 2);
        // X beats both: replaces both, so no two equivalent points ever
        // coexist on the front.
        assert!(front.offer_with(x, 1.0, prefer_smaller));
        assert_eq!(front.len(), 1);
        assert_eq!(front.iter().next().unwrap().1, &1.0);
    }

    #[test]
    fn offer_with_still_rejects_dominated_points() {
        let mut front = ParetoFront::new();
        assert!(front.offer_with(p(1.0, 1.0), 1usize, |n, o| n < o));
        assert!(!front.offer_with(p(2.0, 2.0), 0usize, |n, o| n < o));
        assert_eq!(front.len(), 1);
        assert_eq!(front.iter().next().unwrap().1, &1);
    }

    #[test]
    fn paper_first_instance_front_has_two_points() {
        // Section 4.1: candidate points (1,2), (3/2, 1+eps), (2, 2+eps).
        let eps = 1e-3;
        let front: ParetoFront<()> = vec![
            (p(1.0, 2.0), ()),
            (p(1.5, 1.0 + eps), ()),
            (p(2.0, 2.0 + eps), ()),
        ]
        .into_iter()
        .collect();
        assert_eq!(front.len(), 2);
        assert!(front.covers(&p(2.0, 2.0 + eps)));
    }

    #[test]
    fn best_cmax_and_best_mmax_pick_the_extremes() {
        let front: ParetoFront<&str> = vec![
            (p(1.0, 3.0), "fast"),
            (p(2.0, 1.0), "lean"),
            (p(1.5, 1.5), "balanced"),
        ]
        .into_iter()
        .collect();
        assert_eq!(front.best_cmax().unwrap().1, "fast");
        assert_eq!(front.best_mmax().unwrap().1, "lean");
    }

    #[test]
    fn sorted_output_is_ordered_by_makespan() {
        let front: ParetoFront<usize> = vec![(p(3.0, 1.0), 3), (p(1.0, 3.0), 1), (p(2.0, 2.0), 2)]
            .into_iter()
            .collect();
        let sorted = front.into_sorted();
        let ids: Vec<usize> = sorted.iter().map(|(_, id)| *id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn hypervolume_of_a_simple_front() {
        // Two points (1,3) and (2,1) with reference (4,4):
        // area = (4-1)*(4-3) + (4-2)*(3-1) = 3 + 4 = 7.
        let pts = [p(1.0, 3.0), p(2.0, 1.0)];
        let hv = hypervolume(&pts, &p(4.0, 4.0));
        assert!((hv - 7.0).abs() < 1e-12);
        // Dominated points do not change the value.
        let with_dominated = [p(1.0, 3.0), p(2.0, 1.0), p(3.0, 3.5)];
        assert!((hypervolume(&with_dominated, &p(4.0, 4.0)) - 7.0).abs() < 1e-12);
        // Points beyond the reference contribute nothing.
        assert_eq!(hypervolume(&[p(5.0, 5.0)], &p(4.0, 4.0)), 0.0);
        assert_eq!(hypervolume(&[], &p(4.0, 4.0)), 0.0);
    }

    #[test]
    fn approximation_factor_measures_front_coverage() {
        let exact = [p(1.0, 2.0), p(2.0, 1.0)];
        // The exact front approximates itself with factor 1.
        assert!((approximation_factor(&exact, &exact).unwrap() - 1.0).abs() < 1e-12);
        // A candidate set 20% worse everywhere needs factor 1.2.
        let worse = [p(1.2, 2.4), p(2.4, 1.2)];
        assert!((approximation_factor(&worse, &exact).unwrap() - 1.2).abs() < 1e-12);
        // A single balanced point covers one corner poorly.
        let single = [p(1.5, 1.5)];
        assert!((approximation_factor(&single, &exact).unwrap() - 1.5).abs() < 1e-12);
        assert!(approximation_factor(&[], &exact).is_none());
    }

    #[test]
    fn ideal_and_nadir_points() {
        let pts = vec![p(1.0, 3.0), p(2.0, 1.0), p(5.0, 5.0)];
        let ideal = ideal_point(&pts).unwrap();
        assert_eq!((ideal.cmax, ideal.mmax), (1.0, 1.0));
        let nadir = nadir_point(&pts).unwrap();
        // (5,5) is dominated, so the nadir is taken over the front only.
        assert_eq!((nadir.cmax, nadir.mmax), (2.0, 3.0));
        assert!(ideal_point(&[]).is_none());
        assert!(nadir_point(&[]).is_none());
    }
}
