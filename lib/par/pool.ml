(* Fixed-size domain pool on Domain + Mutex/Condition.

   One mutex guards both the task queue and the per-batch completion
   counters; workers drop it while running user code.  The submitting
   domain participates: while its batch is outstanding it pops and runs
   queued tasks itself, so [jobs] domains (workers + submitter) stay
   busy and a pool of width 1 never context-switches at all.

   Nested [map] calls from inside a task run sequentially on the domain
   running it, a worker or the submitter (detected with a domain-local
   flag) — the fixed-size pool can therefore never deadlock on its own
   tasks, and a nested map never starts a batch of its own. *)

module Sanitize = Scvad_sanitize.Sanitize

type t = {
  mu : Mutex.t;
  work : Condition.t; (* signaled when the queue gains tasks or on close *)
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;
  jobs : int;
  mutable workers : unit Domain.t list;
}

(* True inside a pool worker: nested maps must not re-enter the pool. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Container CPU budget.  [Domain.recommended_domain_count] reports the
   host's core count even when a cgroup quota caps the process well
   below it; oversubscribing a capped container just adds scheduler
   churn.  Read the quota directly (cgroup v2, then v1) and clamp. *)

let read_first_line path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let line = try Some (input_line ic) with End_of_file -> None in
      close_in ic;
      line

let quota_of ~quota ~period =
  match (int_of_string_opt quota, int_of_string_opt period) with
  | Some q, Some p when q > 0 && p > 0 -> Some ((q + p - 1) / p)
  | _ -> None (* -1 / "max" / garbage: unlimited *)

let cgroup_quota () =
  match read_first_line "/sys/fs/cgroup/cpu.max" with
  | Some line -> (
      (* v2: one file holding "<quota|max> <period>". *)
      match String.split_on_char ' ' (String.trim line) with
      | [ quota; period ] -> quota_of ~quota ~period
      | _ -> None)
  | None -> (
      (* v1: split quota/period files; quota -1 means unlimited. *)
      match
        ( read_first_line "/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
          read_first_line "/sys/fs/cgroup/cpu/cpu.cfs_period_us" )
      with
      | Some quota, Some period ->
          quota_of ~quota:(String.trim quota) ~period:(String.trim period)
      | _ -> None)

let hardware_threads () =
  match cgroup_quota () with
  | Some n -> max 1 n
  | None -> Domain.recommended_domain_count ()

let default_jobs () =
  min (Domain.recommended_domain_count ()) (hardware_threads ())

let jobs t = t.jobs

let worker_loop pool () =
  Domain.DLS.set in_worker true;
  Mutex.lock pool.mu;
  let rec loop () =
    if not (Queue.is_empty pool.queue) then begin
      let task = Queue.pop pool.queue in
      Mutex.unlock pool.mu;
      task ();
      Mutex.lock pool.mu;
      loop ()
    end
    else if pool.closed then Mutex.unlock pool.mu
    else begin
      Condition.wait pool.work pool.mu;
      loop ()
    end
  in
  loop ()

let create ~jobs =
  if jobs < 1 then
    invalid_arg
      (Printf.sprintf "Pool.create: jobs must be >= 1 (got %d)" jobs);
  let pool =
    {
      mu = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      closed = false;
      jobs;
      workers = [];
    }
  in
  pool.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (worker_loop pool));
  pool

let shutdown t =
  Mutex.lock t.mu;
  let was_closed = t.closed in
  t.closed <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mu;
  if not was_closed then List.iter Domain.join t.workers

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* One outstanding [map] call: results slot-addressed by input index, so
   ordering is deterministic no matter which domain ran what. *)
type 'b batch = {
  results : ('b, exn * Printexc.raw_backtrace) result option array;
  mutable pending : int;
  done_ : Condition.t; (* broadcast (under the pool mutex) at pending = 0 *)
}

let settle pool batch i outcome =
  Mutex.lock pool.mu;
  batch.results.(i) <- Some outcome;
  batch.pending <- batch.pending - 1;
  if batch.pending = 0 then Condition.broadcast batch.done_;
  Mutex.unlock pool.mu

let run_map ?(sanitize = false) ?(label = "pool.map") pool f (xs : 'a array) =
  let n = Array.length xs in
  let batch = { results = Array.make n None; pending = n; done_ = Condition.create () } in
  (* Sanitized batches record per-shard write sets and check cross-shard
     disjointness at join (DESIGN.md §17): explicitly via [~sanitize], or
     for every batch while a [Sanitize] session is armed. *)
  let sbatch =
    if sanitize || Sanitize.armed () then
      Some (Sanitize.batch_start ~label n)
    else None
  in
  let task i () =
    let outcome =
      try
        Ok
          (match sbatch with
          | None -> f xs.(i)
          | Some b -> Sanitize.in_shard b i (fun () -> f xs.(i)))
      with e -> Error (e, Printexc.get_raw_backtrace ())
    in
    settle pool batch i outcome
  in
  Mutex.lock pool.mu;
  if pool.closed then begin
    Mutex.unlock pool.mu;
    invalid_arg "Pool.map: pool is shut down"
  end;
  for i = 0 to n - 1 do
    Queue.push (task i) pool.queue
  done;
  Condition.broadcast pool.work;
  (* Participate until the batch settles.  A task run here counts as
     running in a worker, so a nested map inside it runs inline exactly
     as it would on a worker domain. *)
  while batch.pending > 0 do
    if not (Queue.is_empty pool.queue) then begin
      let task = Queue.pop pool.queue in
      Mutex.unlock pool.mu;
      let was_worker = Domain.DLS.get in_worker in
      Domain.DLS.set in_worker true;
      task ();
      Domain.DLS.set in_worker was_worker;
      Mutex.lock pool.mu
    end
    else Condition.wait batch.done_ pool.mu
  done;
  Mutex.unlock pool.mu;
  (* Every task has settled: fold the write sets before any re-raise so
     a failing batch still reports its witnesses. *)
  Option.iter Sanitize.batch_join sbatch;
  (* First failure in input order wins; later slots stay settled. *)
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> assert false)
    batch.results

let map ?sanitize pool f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ ->
      if pool.jobs = 1 || Domain.DLS.get in_worker then List.map f xs
      else
        Array.to_list
          (run_map ?sanitize ~label:"pool.map" pool f (Array.of_list xs))

let init ?sanitize pool n f =
  if n < 0 then invalid_arg "Pool.init: negative length";
  if n = 0 then [||]
  else if n = 1 || pool.jobs = 1 || Domain.DLS.get in_worker then
    Array.init n f
  else run_map ?sanitize ~label:"pool.init" pool f (Array.init n Fun.id)
