type slot = {
  epoch : int Atomic.t;
  in_critical : bool Atomic.t;
  mutable depth : int; (* nesting depth, domain-local *)
}

type t = {
  global_epoch : int Atomic.t;
  slots : slot array;
  next_thread : int Atomic.t; (* high-water mark of slots ever claimed *)
  reg_lock : Mutex.t; (* protects [free_slots] and pending drains *)
  mutable free_slots : int list; (* released slot ids available for reuse *)
  pending_release : int list Atomic.t;
      (* Slot ids whose owning domain died without calling [release_thread],
         pushed from GC finalisers. Finalisers can run while the mutator
         holds arbitrary locks, so this is a lock-free stack drained under
         [reg_lock] on the next registration. *)
  live_count : int Atomic.t;
  key : int option ref Domain.DLS.key;
  obs : Smc_obs.t option;
  mutable advance_gate : (unit -> bool) option;
      (* Fault-injection hook: when set, [try_advance] consults the gate and
         fails the advance whenever it returns false. Lets the stress harness
         starve epoch progress to exercise abort/limbo paths. *)
}

(* Weak registry of live epoch instances so [release_current_domain] (called
   from pool-worker teardown, which knows nothing about runtimes) can hand
   back whatever slots this domain claimed anywhere in the process. *)
let instances_lock = Mutex.create ()
let instances : t Weak.t list ref = ref []

let oincr obs c = match obs with Some o -> Smc_obs.incr o c | None -> ()

let create ?(max_threads = 128) ?obs () =
  let t =
    {
      global_epoch = Atomic.make 0;
      slots =
        Array.init max_threads (fun _ ->
            { epoch = Atomic.make 0; in_critical = Atomic.make false; depth = 0 });
      next_thread = Atomic.make 0;
      reg_lock = Mutex.create ();
      free_slots = [];
      pending_release = Atomic.make [];
      live_count = Atomic.make 0;
      key = Domain.DLS.new_key (fun () -> ref None);
      obs;
      advance_gate = None;
    }
  in
  let w = Weak.create 1 in
  Weak.set w 0 (Some t);
  Mutex.lock instances_lock;
  instances := w :: List.filter (fun w -> Weak.check w 0) !instances;
  Mutex.unlock instances_lock;
  t

let global t = Atomic.get t.global_epoch

let push_pending t id =
  let rec go () =
    let old = Atomic.get t.pending_release in
    if not (Atomic.compare_and_set t.pending_release old (id :: old)) then go ()
  in
  go ()

(* Caller holds [reg_lock]. A finaliser-released slot may belong to a domain
   that died mid-critical-section; force the slot quiescent so it cannot
   stall epoch advancement forever. *)
let drain_pending_locked t =
  match Atomic.exchange t.pending_release [] with
  | [] -> ()
  | ids ->
    List.iter
      (fun id ->
        let s = t.slots.(id) in
        s.depth <- 0;
        Atomic.set s.in_critical false;
        t.free_slots <- id :: t.free_slots;
        Atomic.decr t.live_count;
        oincr t.obs Smc_obs.c_thread_releases)
      ids

let thread_id t =
  let cell = Domain.DLS.get t.key in
  match !cell with
  | Some id -> id
  | None ->
    Mutex.lock t.reg_lock;
    drain_pending_locked t;
    let id =
      match t.free_slots with
      | id :: rest ->
        t.free_slots <- rest;
        id
      | [] ->
        let id = Atomic.fetch_and_add t.next_thread 1 in
        if id >= Array.length t.slots then begin
          Mutex.unlock t.reg_lock;
          failwith "Epoch: too many threads"
        end;
        id
    in
    let s = t.slots.(id) in
    s.depth <- 0;
    Atomic.set s.in_critical false;
    Atomic.set s.epoch (Atomic.get t.global_epoch);
    Atomic.incr t.live_count;
    Mutex.unlock t.reg_lock;
    cell := Some id;
    (* Best-effort safety net: if this domain dies without calling
       [release_thread], the cell's finaliser returns the slot. It runs on
       an arbitrary domain inside GC, so it only pushes to the lock-free
       pending stack. *)
    Gc.finalise
      (fun cell -> match !cell with Some id -> push_pending t id | None -> ())
      cell;
    oincr t.obs Smc_obs.c_thread_registers;
    id

let release_thread t =
  let cell = Domain.DLS.get t.key in
  match !cell with
  | None -> ()
  | Some id ->
    let s = t.slots.(id) in
    if s.depth > 0 then
      invalid_arg "Epoch.release_thread: inside a critical section";
    cell := None;
    Mutex.lock t.reg_lock;
    Atomic.set s.in_critical false;
    t.free_slots <- id :: t.free_slots;
    Atomic.decr t.live_count;
    oincr t.obs Smc_obs.c_thread_releases;
    Mutex.unlock t.reg_lock

let release_current_domain () =
  Mutex.lock instances_lock;
  let ws = !instances in
  Mutex.unlock instances_lock;
  List.iter
    (fun w ->
      match Weak.get w 0 with
      | Some t -> release_thread t
      | None -> ())
    ws

let live_threads t =
  Mutex.lock t.reg_lock;
  drain_pending_locked t;
  let n = Atomic.get t.live_count in
  Mutex.unlock t.reg_lock;
  n

let my_slot t = t.slots.(thread_id t)

(* Atomic.set/get carry the fences the paper's enter/exit pseudocode inserts
   explicitly around the session-context updates. *)
let enter_critical t =
  let s = my_slot t in
  if s.depth = 0 then begin
    Atomic.set s.epoch (Atomic.get t.global_epoch);
    Atomic.set s.in_critical true;
    oincr t.obs Smc_obs.c_crit_enters
  end;
  s.depth <- s.depth + 1

let exit_critical t =
  let s = my_slot t in
  if s.depth <= 0 then invalid_arg "Epoch.exit_critical: not in a critical section";
  s.depth <- s.depth - 1;
  if s.depth = 0 then Atomic.set s.in_critical false

let critical t f =
  enter_critical t;
  Fun.protect ~finally:(fun () -> exit_critical t) f

let in_critical t = (my_slot t).depth > 0

let local_epoch t = Atomic.get (my_slot t).epoch

let refresh_local t =
  let s = my_slot t in
  Atomic.set s.epoch (Atomic.get t.global_epoch)

let all_reached t epoch =
  let n = min (Atomic.get t.next_thread) (Array.length t.slots) in
  let ok = ref true in
  for i = 0 to n - 1 do
    let s = t.slots.(i) in
    if Atomic.get s.in_critical && Atomic.get s.epoch < epoch then ok := false
  done;
  !ok

let try_advance t =
  let gated = match t.advance_gate with None -> true | Some g -> g () in
  let advanced =
    gated
    &&
    let e = Atomic.get t.global_epoch in
    all_reached t e && Atomic.compare_and_set t.global_epoch e (e + 1)
  in
  oincr t.obs (if advanced then Smc_obs.c_epoch_adv_ok else Smc_obs.c_epoch_adv_fail);
  advanced

let registered_threads t = min (Atomic.get t.next_thread) (Array.length t.slots)

let set_advance_gate t gate = t.advance_gate <- gate

let slot_snapshot t i =
  let s = t.slots.(i) in
  (Atomic.get s.epoch, Atomic.get s.in_critical)

let advance_until t ~target ~max_spins =
  let rec go spins =
    if Atomic.get t.global_epoch >= target then true
    else if spins >= max_spins then false
    else begin
      ignore (try_advance t : bool);
      Domain.cpu_relax ();
      go (spins + 1)
    end
  in
  go 0

let can_reclaim t ~stamp = Atomic.get t.global_epoch >= stamp + 2

let all_reached_except t epoch except =
  let n = min (Atomic.get t.next_thread) (Array.length t.slots) in
  let ok = ref true in
  for i = 0 to n - 1 do
    if i <> except then begin
      let s = t.slots.(i) in
      if Atomic.get s.in_critical && Atomic.get s.epoch < epoch then ok := false
    end
  done;
  !ok

let wait_all_reached t ?(except = -1) ~epoch ~max_spins () =
  let rec go spins =
    if all_reached_except t epoch except then true
    else if spins >= max_spins then false
    else begin
      Domain.cpu_relax ();
      go (spins + 1)
    end
  in
  go 0
