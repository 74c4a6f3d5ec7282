(** Kqueues: kernel event queues (FreeBSD's select/poll successor).

    Checkpointing a kqueue must lock and serialize every registered event —
    the reason it is the slowest POSIX object in the paper's Table 4.

    Polling is event-driven, as in FreeBSD: each registration has a
    {e knote} hung on the socket or pipe its ident names, the object
    {!activate}s its knotes wherever its readiness can change, and a
    poll tests only the active knotes.  Knotes, views and the active set
    are host-side bookkeeping: none of it is serialized, and activation
    moves no generation stamp. *)

type filter = Ev_read | Ev_write | Ev_timer | Ev_signal | Ev_proc

type kevent = {
  ident : int;  (** fd, signal number, pid, ... depending on the filter *)
  filter : filter;
  flags : int;
  udata : int;  (** opaque user cookie *)
}

type t

val create : unit -> t
val id : t -> int

val generation : t -> int
(** Monotonic mutation stamp over the registered-event set. *)

val touch : t -> unit

val register : t -> kevent -> unit
(** Replace any registration with the same [(ident, filter)] and put
    [ev] first in {!events}.  Every built {!view} attaches a knote for
    it in O(1). *)

val deregister : t -> ident:int -> filter:filter -> unit
val events : t -> kevent list
(** Newest registration first. *)

val event_count : t -> int

val replace_events : t -> kevent list -> unit
(** Restore path.  Views rebuild at their next {!poll}. *)

(** {1 Knotes} *)

type knlist
(** The knotes hung on one object (FreeBSD's [knlist]): each socket and
    pipe owns one. *)

val knlist : unit -> knlist

val activate : knlist -> unit
(** The object's readiness may have changed: queue its knotes for the
    next poll of their views.  O(knotes on the object). *)

(** What a registration's ident names in one process: an object whose
    level test [test] decides readiness, an event that is always ready,
    or one that never is (no such fd, or a filter the object does not
    support). *)
type target = Never | Always | On of knlist * (unit -> bool)

(** {1 Views and polls} *)

type view
(** One process's binding of the kqueue: every registration resolved
    through that process's fd table, so processes sharing a kqueue
    after fork each poll through their own table. *)

val view : t -> resolve:(kevent -> target) -> view
(** An unbuilt view; it resolves every registration at its first
    {!poll}. *)

val view_kqueue : view -> t

val forget : view -> unit
(** Detach the view from its kqueue and its objects (its process is
    gone). *)

val slot_changed : view -> slot:int -> unit
(** The fd slot [slot] of the view's process now names something else:
    re-resolve the registrations whose ident is [slot], and only
    those. *)

val poll : view -> kevent list
(** The registrations that are ready now, in {!events} order: exactly
    [List.filter ready (events t)] under the level test of each
    {!target}.  Tests only the active knotes, sorted by registration
    order, and deactivates the ones that are not ready; a ready knote
    stays active.  Costs O(a log a) for [a] active knotes, plus one
    resolve per registration at the view's first poll. *)

val examined : t -> int
(** Knotes tested by every poll of every view so far. *)
