(* A reusable pool of worker domains. Domains are expensive to spawn
   (~tens of microseconds plus a GC ramp-up), far too expensive to pay per
   query, so the pool spawns lazily — one worker per outstanding demand, up
   to the size cap — and keeps them parked on a condition variable between
   queries. The calling domain always participates in [run], so a pool of
   size 0 degrades to plain sequential execution. *)

type 'a outcome = Done of 'a | Failed of exn

type 'a promise = {
  p_lock : Mutex.t;
  p_cond : Condition.t;
  mutable p_state : 'a outcome option;
}

type t = {
  size : int; (* worker-domain cap; parallelism in [run] is size + 1 *)
  lock : Mutex.t;
  work_available : Condition.t;
  tasks : (unit -> unit) Queue.t;
  mutable workers : unit Domain.t list;
  mutable n_workers : int;
  mutable outstanding : int; (* tasks submitted but not yet finished *)
  mutable stopping : bool;
  obs : Smc_obs.t option;
}

let default_size () = max 0 (Domain.recommended_domain_count () - 1)

let create ?size ?obs () =
  let size = match size with Some s -> max 0 s | None -> default_size () in
  {
    size;
    lock = Mutex.create ();
    work_available = Condition.create ();
    tasks = Queue.create ();
    workers = [];
    n_workers = 0;
    outstanding = 0;
    stopping = false;
    obs;
  }

let size t = t.size

let spawned t =
  Mutex.lock t.lock;
  let n = t.n_workers in
  Mutex.unlock t.lock;
  n

(* Workers drain the queue before honouring a shutdown so every promise
   issued before [shutdown] is fulfilled. Tasks never raise: [submit] wraps
   the user function so the exception travels through the promise. *)
let worker_loop t =
  let rec next () =
    Mutex.lock t.lock;
    let rec take () =
      if not (Queue.is_empty t.tasks) then Some (Queue.pop t.tasks)
      else if t.stopping then None
      else begin
        Condition.wait t.work_available t.lock;
        take ()
      end
    in
    let task = take () in
    Mutex.unlock t.lock;
    match task with
    | None ->
      (* This worker domain is about to die: hand back every epoch thread
         slot it registered, so pool create/shutdown cycles do not exhaust
         the epoch manager's slot array. *)
      Smc_offheap.Epoch.release_current_domain ()
    | Some f ->
      f ();
      next ()
  in
  next ()

let fulfil p outcome =
  Mutex.lock p.p_lock;
  p.p_state <- Some outcome;
  Condition.broadcast p.p_cond;
  Mutex.unlock p.p_lock

let submit t f =
  let p = { p_lock = Mutex.create (); p_cond = Condition.create (); p_state = None } in
  let task () =
    let outcome = try Done (f ()) with e -> Failed e in
    (* Retire the demand before publishing the result: a caller that awaits
       this promise and immediately submits again must see the pool as able
       to reuse this worker, not spawn another. *)
    Mutex.lock t.lock;
    t.outstanding <- t.outstanding - 1;
    Mutex.unlock t.lock;
    fulfil p outcome
  in
  (match t.obs with Some o -> Smc_obs.incr o Smc_obs.c_pool_tasks | None -> ());
  Mutex.lock t.lock;
  if t.stopping then begin
    Mutex.unlock t.lock;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  if t.size = 0 then begin
    (* No worker will ever exist, so a queued task could never run and
       [await] would block forever. Degrade to sequential execution on the
       caller — the same size-0 contract [run] has. *)
    t.outstanding <- t.outstanding + 1;
    Mutex.unlock t.lock;
    task ();
    p
  end
  else begin
  Queue.push task t.tasks;
  t.outstanding <- t.outstanding + 1;
  (* Lazy spawning: grow only while outstanding demand (queued + running
     tasks) exceeds the workers already spawned — an existing worker that is
     parked, or about to finish its task, will pick the work up. A pool
     serving strictly sequential submits therefore spawns one domain, not
     [size]; a pool that is never used spawns nothing. *)
  if t.n_workers < t.size && t.outstanding > t.n_workers then begin
    t.n_workers <- t.n_workers + 1;
    t.workers <- Domain.spawn (fun () -> worker_loop t) :: t.workers
  end;
  Condition.signal t.work_available;
  Mutex.unlock t.lock;
  p
  end

let await p =
  Mutex.lock p.p_lock;
  let rec wait () =
    match p.p_state with
    | Some outcome -> outcome
    | None ->
      Condition.wait p.p_cond p.p_lock;
      wait ()
  in
  let outcome = wait () in
  Mutex.unlock p.p_lock;
  match outcome with Done v -> v | Failed e -> raise e

(* Each helper index is claimed once, by a worker that starts its task or
   by the caller once [f 0] returned: a helper no worker has started yet
   runs on the caller, so a [run] issued from inside one of the pool's own
   tasks never waits for a worker that is busy running it. *)
let run t ~workers f =
  let workers = max 1 workers in
  let extra = min (workers - 1) t.size in
  let claimed = Array.init extra (fun _ -> Atomic.make false) in
  let claim i = Atomic.compare_and_set claimed.(i) false true in
  let promises = List.init extra (fun i -> submit t (fun () -> if claim i then f (i + 1))) in
  let attempt g = try Done (g ()) with e -> Failed e in
  let mine = attempt (fun () -> f 0) in
  (* Await every helper even when one failed, so no worker is still touching
     shared state when [run] returns; then re-raise the first failure. *)
  let outcomes =
    List.mapi
      (fun i p -> if claim i then attempt (fun () -> f (i + 1)) else attempt (fun () -> await p))
      promises
  in
  List.iter (function Done () -> () | Failed e -> raise e) (mine :: outcomes)

let effective_workers t ~requested = 1 + min (max 1 requested - 1) t.size

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.work_available;
  let workers = t.workers in
  t.workers <- [];
  t.n_workers <- 0;
  Mutex.unlock t.lock;
  List.iter Domain.join workers

(* One process-wide default pool, created on first use and torn down at
   exit so worker domains never outlive the program's shutdown sequence.
   Exactly one at_exit handler is ever registered, and it shuts down
   whatever the *current* default is at exit time — registering a fresh
   handler per recreation would accumulate one closure per
   default/shutdown cycle, each pinning its (long shut-down) pool. *)
let default_lock = Mutex.create ()
let default_pool = ref None
let default_exit_handlers_count = ref 0

let default () =
  Mutex.lock default_lock;
  let p =
    match !default_pool with
    | Some p when not p.stopping -> p
    | _ ->
      let p = create () in
      default_pool := Some p;
      if !default_exit_handlers_count = 0 then begin
        incr default_exit_handlers_count;
        at_exit (fun () ->
            Mutex.lock default_lock;
            let current = !default_pool in
            Mutex.unlock default_lock;
            match current with
            | Some p when not p.stopping -> shutdown p
            | _ -> ())
      end;
      p
  in
  Mutex.unlock default_lock;
  p

let default_exit_handlers () =
  Mutex.lock default_lock;
  let n = !default_exit_handlers_count in
  Mutex.unlock default_lock;
  n
