/**
 * @file
 * NondetSeam: the scheduler-level seam that exposes scheduling
 * nondeterminism to an external explorer (src/mc/).
 *
 * The production simulator is deterministic: SimScheduler resolves ties
 * at equal virtual times FIFO (os/dispatch_order.h). Real Android makes
 * no such promise across threads — two loopers whose next messages are
 * due "now" may run in either order. The model checker needs to drive
 * both orders, so:
 *
 *  - every scheduled event may carry an EventLabel naming it (a looper
 *    wakeup, a binder leg); labels ride in the event's payload, not in
 *    the heap keys, so the hot sift path is unchanged;
 *  - SimScheduler::runnableNow() enumerates the pending events tied at
 *    the minimum `when` — the candidate set of one scheduling choice;
 *  - SimScheduler::runEventById() dispatches one chosen candidate,
 *    overriding the FIFO default.
 *
 * Production code never calls the last two; when nobody does, behaviour
 * is byte-for-byte the FIFO contract. The explorer replays a schedule
 * as the sequence of indices it picked at each choice point, which is
 * deterministic because candidate enumeration follows dispatch_order.
 */
#ifndef RCHDROID_OS_NONDET_SEAM_H
#define RCHDROID_OS_NONDET_SEAM_H

namespace rchdroid {

/**
 * Optional identity of a scheduled event, for the explorer only.
 *
 * `name` must outlive the event (loopers pass their own name storage;
 * static strings otherwise). The explorer shows it as the choice's
 * label and fingerprints the pending set by it; an unlabeled event (the
 * ATMS's binder legs to its clients) shows as "?". Sleep sets ignore
 * labels: they commute two choices whenever the footprints their steps
 * were observed to touch are disjoint, labeled or not. Only the static
 * independence guidance reads a label, to map a looper wakeup to its
 * process, and it never prunes a choice point with an unlabeled option.
 */
struct EventLabel
{
    /** Stable human-readable name; null for unlabeled events. */
    const char *name = nullptr;
};

} // namespace rchdroid

#endif // RCHDROID_OS_NONDET_SEAM_H
