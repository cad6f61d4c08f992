(** Structured tracing: nestable, wall-clock-timed spans.

    A span covers one dynamic region of execution ([with_span] brackets
    it); spans opened inside it become its children, giving a per-run
    tree. Completed spans land in a bounded ring buffer (oldest entries
    are overwritten), so tracing can stay on for long sessions without
    unbounded memory growth.

    Tracing is {e off} by default. When disabled and no request context
    is installed, [with_span] is two atomic loads plus a tail call — no
    allocation, no clock read — so instrumentation can be left in hot
    paths permanently.

    The open-span stack is {e thread}-local (keyed by [Thread.id], not
    [Domain.DLS], so concurrent server connection threads trace without
    interleaving): spans opened on a {!Pb_par} worker domain form their
    own tree rooted at that domain (they render as extra roots), while
    the completed-span ring is shared and mutex-guarded, so concurrent
    strategy legs can trace safely.  [timed] always measures (two clock
    reads) and additionally records a span when tracing is active; use
    it where the caller needs the elapsed time regardless (e.g.
    {!Pb_core.Engine} report timings).

    {b Request contexts.} [with_context ~trace_id f] installs a
    per-thread collector: every span the thread closes while [f] runs is
    captured and returned (wrapped under a root ["request"] span), keyed
    by the request's wire trace id. Context spans bypass the global ring
    unless tracing is also globally enabled, so concurrent requests
    never mix; spans opened on worker domains during the request are
    {e not} captured (they have no context) — a documented limit of the
    per-thread design.

    Span naming convention: [layer.operation], lowercase, dot-separated —
    ["sql.scan"], ["milp.solve"], ["strategy.local-search"],
    ["engine.evaluate"]. Attributes carry static context (table name);
    counters carry per-span work tallies (rows scanned, nodes explored). *)

type span = {
  id : int;  (** monotonically increasing; orders spans by open time *)
  parent : int;  (** id of the enclosing span, or [-1] for a root *)
  name : string;
  mutable attrs : (string * string) list;
      (** static context, set at open or via {!add_attr} *)
  mutable counters : (string * int) list;  (** work tallies, via {!add_count} *)
  start : float;  (** wall-clock open time (seconds since epoch) *)
  mutable elapsed : float;  (** seconds between open and close *)
}

val set_enabled : bool -> unit
val is_enabled : unit -> bool

val reset : ?capacity:int -> unit -> unit
(** Clear recorded spans (and any dangling open stack of the calling
    thread). [capacity] resizes the ring buffer (default 4096, kept
    across resets unless given). *)

val with_span : ?attrs:(string * string) list -> name:string -> (unit -> 'a) -> 'a
(** Run the thunk inside a new span. When tracing is inactive (globally
    disabled and no context on this thread) this is just the thunk
    call. The span is recorded even if the thunk raises. *)

val timed : ?attrs:(string * string) list -> name:string -> (unit -> 'a) -> 'a * float
(** Like {!with_span}, but always returns the wall-clock elapsed seconds,
    whether or not tracing is active. *)

val add_count : string -> int -> unit
(** Accumulate [v] into a named counter on the innermost open span of
    the calling thread. No-op when tracing is inactive or no span is
    open. *)

val add_attr : string -> string -> unit
(** Append an attribute to the innermost open span of the calling thread,
    for context known only once the span's work has run. No-op when
    tracing is inactive or no span is open. *)

val with_context : trace_id:string -> (unit -> 'a) -> 'a * span list
(** Run the thunk under a request trace context: a root span named
    ["request"] (carrying a [trace_id] attribute) is opened around it,
    and every span the calling thread closes inside — the root included
    — is returned in open order. Always collects, independent of
    {!set_enabled}; reentrant (the previous context is restored on
    exit); exception-safe (the context is uninstalled, though the spans
    collected up to the raise are lost with the return value). *)

val current_trace_id : unit -> string option
(** Trace id of the context installed on the calling thread, if any. *)

val spans : unit -> span list
(** Completed spans surviving in the ring, in open order. *)

val dropped : unit -> int
(** Completed spans overwritten because the ring was full. *)

val render_spans : ?dropped:int -> span list -> string
(** Indented tree of the given spans (open order expected): name,
    attributes, elapsed time, counters. Spans whose parent is not in the
    list render as roots. *)

val render_tree : unit -> string
(** {!render_spans} over the global ring. *)

val json_escape : string -> string
(** JSON string-body escaping (quotes, backslashes, control chars). *)

val span_to_json : ?id_name:(int -> string) -> span -> string
(** One span as a JSON object. [id_name] substitutes an external name
    for span ids — the trace store maps a request's root span id to its
    wire trace id; with it, a root's [-1] parent becomes [null]. *)

val to_json_lines : unit -> string
(** One JSON object per completed span in the ring, newline-separated,
    in open order: [{"id":…,"parent":…,"name":…,"start":…,
    "elapsed_s":…,"attrs":{…},"counters":{…}}]. *)
