(* The clock: CLOCK_MONOTONIC via a tiny C stub.  Wall-clock sources
   (gettimeofday) step in both directions — a backward step could
   un-expire a deadline, a forward step (NTP, suspend/resume) would
   instantly expire every in-flight one.  The monotonic clock is
   system-wide non-decreasing by POSIX, which also gives the
   cross-domain monotonicity the interface promises. *)
external now : unit -> float = "lxu_deadline_monotonic_now"

type t = float (* absolute seconds on the [now] clock; infinity = never *)

let never = infinity
let after s = now () +. s
let expired d = d < infinity && now () >= d

module Cancel = struct
  type reason = Timeout | User of string

  exception Cancelled of reason

  type t = reason option Atomic.t

  let create () = Atomic.make None

  let cancel ?(reason = "cancelled") t =
    ignore (Atomic.compare_and_set t None (Some (User reason)))

  let reason = Atomic.get
end

type guard = {
  deadline : t;
  cancel : Cancel.t option;
  mutable countdown : int;
      (* checks until the next clock probe; races between domains
         sharing a guard only change probe frequency, never results *)
}

let probe_period = 64

let guard ?(deadline = never) ?cancel () =
  match (deadline, cancel) with
  | d, None when d = infinity -> None
  | _ -> Some { deadline; cancel; countdown = 0 }

let check g =
  (match g.cancel with
  | None -> ()
  | Some c -> (
    match Atomic.get c with None -> () | Some r -> raise (Cancel.Cancelled r)));
  if g.deadline < infinity then begin
    g.countdown <- g.countdown - 1;
    if g.countdown <= 0 then begin
      g.countdown <- probe_period;
      if now () >= g.deadline then raise (Cancel.Cancelled Cancel.Timeout)
    end
  end

let check_opt = function None -> () | Some g -> check g
