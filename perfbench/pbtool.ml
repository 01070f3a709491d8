(** The benchmark's in-process half: loading a database through the
    storage layer, and the traced replay that splits request time by
    layer.  Every span is taken here, around calls into the layers'
    public functions; nothing inside [lib/] is instrumented.

    {v
    pbtool setup DB NODES.csv RELS.csv
    pbtool trace DB STREAM.tsv SECONDS ALLOC_OPS
    v}

    [setup] bulk-loads the two CSV files into a fresh database at DB,
    registers a [key] property index on every label and compacts the
    journal into a snapshot, then prints one JSON line of timings.

    [trace] recovers DB and replays the request stream (one operation
    per line: connection, kind, then the request lines, tab-separated)
    in four passes over the recovered graph:
    - pass 0, single-threaded and deterministic, over the first
      ALLOC_OPS operations: minor words allocated per statement (the
      count repeats exactly for a given stream), and side timings of
      parse, validate and plan on statements that execution does not
      reuse;
    - pass A, untraced: one {!Service.t} per connection, each request
      answered by [Service.handle] with only its total timed;
    - pass B, traced: the same requests answered by the public calls
      [Service.handle] makes (prepare, pool hand-off, execute, commit,
      render), each one timed, with a timed journal sink;
    - a [:ping] round trip over TCP to a {!Server} on the same state.
    Passes A and B each start from the recovered graph with a fresh
    committer and run for SECONDS/2.  Report lines go to stdout; the
    last line is one JSON object of raw per-layer figures. *)

open Cypher_core
open Cypher_graph
open Cypher_table
module Store = Cypher_storage.Store
module Bulk = Cypher_storage.Bulk
module Shared = Cypher_server.Shared
module Service = Cypher_server.Service
module Server = Cypher_server.Server
module Pool = Cypher_util.Pool
module Parser = Cypher_parser.Parser
module Validate = Cypher_ast.Validate

(* the server's shipped configuration: Revised semantics, default
   backend and rows, fsync journal *)
let config = Config.with_durability Config.Fsync Config.revised
let readers = Pool.recommended ()
let now_ns () = Int64.to_int (Cypher_util.Mclock.now_ns ())

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("pbtool: " ^ m);
      exit 2)
    fmt

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

let secs ns = float_of_int ns /. 1e9
let file_size p = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0

let open_db db =
  match Store.open_db ~config db with Ok x -> x | Error m -> fail "%s" m

let json_line fields =
  print_endline
    ("{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %.9g" k v) fields)
    ^ "}")

(* ------------------------------------------------------------------ *)
(* setup                                                              *)
(* ------------------------------------------------------------------ *)

let setup db nodes_path rels_path =
  let store, session = open_db db in
  let report, load_ns =
    timed (fun () -> Bulk.load_files session ~nodes_path ~rels_path)
  in
  (match report with Ok _ -> () | Error e -> fail "%s" (Errors.to_string e));
  List.iter
    (fun label -> Session.register_prop_index session ~label ~key:"key")
    [ "Vendor"; "Product"; "User" ];
  let compacted, compact_ns = timed (fun () -> Store.compact store session) in
  (match compacted with Ok () -> () | Error m -> fail "%s" m);
  Store.close store;
  let g = Session.graph session in
  json_line
    [
      ("bulk_load_s", secs load_ns);
      ("compact_s", secs compact_ns);
      ("snapshot_bytes", float_of_int (file_size (Filename.concat db "snapshot.cy")));
      ("nodes", float_of_int (Graph.node_count g));
      ("rels", float_of_int (Graph.rel_count g));
    ]

(* ------------------------------------------------------------------ *)
(* The request stream                                                 *)
(* ------------------------------------------------------------------ *)

type op = { kind : string; lines : string list }

let load_stream path =
  let per_conn = Hashtbl.create 2 in
  In_channel.with_open_bin path (fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some l ->
            (match String.split_on_char '\t' l with
            | conn :: kind :: (_ :: _ as lines) ->
                let c = int_of_string conn in
                let prev = try Hashtbl.find per_conn c with Not_found -> [] in
                Hashtbl.replace per_conn c ({ kind; lines } :: prev)
            | _ -> fail "malformed stream line");
            loop ()
      in
      loop ());
  let n = Hashtbl.length per_conn in
  Array.init n (fun c -> Array.of_list (List.rev (Hashtbl.find per_conn c)))

let is_tx op = op.kind = "tx"
let is_read op = String.length op.kind > 5 && String.sub op.kind 0 5 = "read_"

(* the statement class [core.execute_*] and [core.alloc_words_*] are
   reported under *)
let exec_class op =
  if is_read op then "read"
  else
    match op.kind with
    | "write_create" | "write_set" -> "write"
    | k -> k

let handle_class op =
  if is_tx op then "tx" else if is_read op then "read" else "write"

(* named accumulators: total and count per name *)
module Acc = struct
  type t = (string, int ref * int ref) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let add (t : t) name v =
    match Hashtbl.find_opt t name with
    | Some (s, n) ->
        s := !s + v;
        incr n
    | None -> Hashtbl.replace t name (ref v, ref 1)

  let merge (into : t) (from : t) =
    Hashtbl.iter
      (fun k (s, n) ->
        match Hashtbl.find_opt into k with
        | Some (s', n') ->
            s' := !s' + !s;
            n' := !n' + !n
        | None -> Hashtbl.replace into k (ref !s, ref !n))
      from

  let sum (t : t) name =
    match Hashtbl.find_opt t name with Some (s, _) -> !s | None -> 0

  let count (t : t) name =
    match Hashtbl.find_opt t name with Some (_, n) -> !n | None -> 0

  let mean (t : t) name =
    match Hashtbl.find_opt t name with
    | Some (s, n) when !n > 0 -> Some (float_of_int !s /. float_of_int !n)
    | _ -> None
end

let ok_terminator l = String.length l >= 2 && String.sub l 0 2 = "OK"

let last = function [] -> "" | xs -> List.nth xs (List.length xs - 1)

(* ------------------------------------------------------------------ *)
(* Pass 0: allocation and side timings, single-threaded               *)
(* ------------------------------------------------------------------ *)

let pass_alloc g0 streams ~max_ops =
  let acc = Acc.create () in
  let session = Session.create ~config:(Config.with_stats true config) g0 in
  let g = ref g0 in
  let longest = Array.fold_left (fun m s -> max m (Array.length s)) 0 streams in
  let seen = ref 0 in
  (try
     for i = 0 to longest - 1 do
       Array.iter
         (fun s ->
           if i < Array.length s then begin
             if !seen >= max_ops then raise Exit;
             incr seen;
             let op = s.(i) in
             List.iter
               (fun src ->
                 if src.[0] <> ':' then begin
                   (match timed (fun () -> Parser.parse_statement src) with
                   | Ok (_, q), ns -> (
                       Acc.add acc "parse" ns;
                       match
                         timed (fun () -> Validate.validate config.Config.dialect q)
                       with
                       | _, ns -> Acc.add acc "validate" ns)
                   | Error _, _ -> Acc.add acc "failed" 1);
                   (match Api.prepare ~config src with
                   | Ok fresh ->
                       let _, ns = timed (fun () -> Api.prepared_plan fresh !g) in
                       Acc.add acc "plan" ns
                   | Error _ -> ());
                   let w0 = Gc.minor_words () in
                   (match Session.prepare session src with
                   | Error _ -> Acc.add acc "failed" 1
                   | Ok p -> (
                       match Session.run_prepared_on session !g p with
                       | Ok r -> if Api.prepared_updates p then g := r.Api.r_graph
                       | Error _ -> Acc.add acc "failed" 1));
                   let words = int_of_float (Gc.minor_words () -. w0) in
                   Acc.add acc "alloc" words;
                   Acc.add acc ("alloc_" ^ exec_class op) words
                 end)
               op.lines
           end)
         streams
     done
   with Exit -> ());
  acc

(* ------------------------------------------------------------------ *)
(* Journal sink with recorded intervals                               *)
(* ------------------------------------------------------------------ *)

(* every journal append, as a (start, stop) interval, newest first — a
   request's journal time is the overlap of its own interval with
   these, which charges a group commit's one fsync to every member
   that waited for it *)
type wal_log = { lock : Mutex.t; mutable spans : (int * int) list }

let timed_sink store log entries =
  let t0 = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = now_ns () in
      Mutex.lock log.lock;
      log.spans <- (t0, t1) :: log.spans;
      Mutex.unlock log.lock)
    (fun () -> Store.append_entries store entries)

let wal_overlap log a b =
  Mutex.lock log.lock;
  let spans = log.spans in
  Mutex.unlock log.lock;
  let rec go acc = function
    | [] -> acc
    | (s, e) :: rest ->
        if e < a then acc
        else go (acc + max 0 (min e b - max s a)) rest
  in
  go 0 spans

(* ------------------------------------------------------------------ *)
(* Passes A and B: concurrent replay                                  *)
(* ------------------------------------------------------------------ *)

(* runs [serve conn op] for each connection's ops on its own thread
   until [seconds] elapse; returns completed ops and the wall time *)
let replay streams ~seconds serve =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let done_ = Array.make (Array.length streams) 0 in
  let t0 = now_ns () in
  let threads =
    Array.mapi
      (fun c ops ->
        Thread.create
          (fun () ->
            let i = ref 0 in
            while !i < Array.length ops && now_ns () < deadline do
              serve c ops.(!i);
              incr i
            done;
            done_.(c) <- !i)
          ())
      streams
  in
  Array.iter Thread.join threads;
  (Array.fold_left ( + ) 0 done_, now_ns () - t0)

let pass_untraced g0 sink streams ~seconds =
  let shared = Shared.create ~sink g0 in
  let accs = Array.map (fun _ -> Acc.create ()) streams in
  let services =
    Array.map (fun _ -> Service.create ~readers ~config shared) streams
  in
  let serve c op =
    let rs, ns =
      timed (fun () -> List.map (Service.handle services.(c)) op.lines)
    in
    Acc.add accs.(c) ("handle_" ^ handle_class op) ns;
    Acc.add accs.(c) "handle" ns;
    if not (List.for_all (fun r -> ok_terminator (last r)) rs) then
      Acc.add accs.(c) "failed" 1
  in
  let ops, wall = replay streams ~seconds serve in
  let acc = Acc.create () in
  Array.iter (Acc.merge acc) accs;
  (acc, ops, wall)

(* the response text [Service] renders, built from the same calls *)
let render (r : Api.result) =
  let lines s =
    match String.trim s with "" -> [] | s -> String.split_on_char '\n' s
  in
  let table =
    if Table.columns r.Api.r_table = [] then []
    else lines (Table.to_string r.Api.r_table)
  in
  let footer =
    if Stats.contains_updates r.Api.r_stats then lines (Stats.footer r.Api.r_stats)
    else []
  in
  table @ footer

let entry_of src stats =
  {
    Session.je_src = src;
    je_stats = stats;
    je_config = config;
    je_kind = `Statement;
  }

let pass_traced g0 sink log streams ~seconds =
  let shared = Shared.create ~sink g0 in
  let accs = Array.map (fun _ -> Acc.create ()) streams in
  let sessions =
    Array.map
      (fun _ -> Session.create ~config:(Config.with_stats true config) g0)
      streams
  in
  let services =
    Array.map (fun _ -> Service.create ~readers ~config shared) streams
  in
  let statement c op src =
    let acc = accs.(c) in
    let s = sessions.(c) in
    let cls = exec_class op in
    let p, prep_ns = timed (fun () -> Session.prepare s src) in
    Acc.add acc "prepare" prep_ns;
    match p with
    | Error _ -> Acc.add acc "failed" 1
    | Ok p when Api.prepared_updates p ->
        let payload = ref None and exec_ns = ref 0 in
        let exec head =
          let r, ns = timed (fun () -> Session.run_prepared_on s head p) in
          exec_ns := ns;
          match r with
          | Ok r ->
              payload := Some r;
              let entries =
                if Stats.contains_updates r.Api.r_stats then
                  [ entry_of src r.Api.r_stats ]
                else []
              in
              Ok (r.Api.r_graph, entries)
          | Error e -> Error (Errors.to_string e)
        in
        let c0 = now_ns () in
        let outcome = Shared.commit shared exec in
        let c1 = now_ns () in
        let wal = wal_overlap log c0 c1 in
        Acc.add acc "execute" !exec_ns;
        Acc.add acc ("execute_" ^ cls) !exec_ns;
        Acc.add acc "wal" wal;
        Acc.add acc "commit_wait" (c1 - c0 - !exec_ns - wal);
        (match (outcome, !payload) with
        | Ok _, Some r ->
            let _, ns = timed (fun () -> render r) in
            Acc.add acc "render" ns
        | _ -> Acc.add acc "failed" 1)
    | Ok p -> (
        let _, head = Shared.current shared in
        let inner = ref 0 in
        let r, outer =
          timed (fun () ->
              Pool.await
                (Pool.submit ~parallelism:readers (fun () ->
                     let r, ns = timed (fun () -> Session.run_prepared_on s head p) in
                     inner := ns;
                     r)))
        in
        Acc.add acc "execute" !inner;
        Acc.add acc ("execute_" ^ cls) !inner;
        Acc.add acc "pool" (outer - !inner);
        match r with
        | Ok r ->
            let _, ns = timed (fun () -> render r) in
            Acc.add acc "render" ns
        | Error _ -> Acc.add acc "failed" 1)
  in
  let serve c op =
    let acc = accs.(c) in
    let t0 = now_ns () in
    if is_tx op then begin
      let rs, ns =
        timed (fun () -> List.map (Service.handle services.(c)) op.lines)
      in
      let t1 = now_ns () in
      let wal = wal_overlap log t0 t1 in
      Acc.add acc "wal" wal;
      Acc.add acc "tx_handle" (ns - wal);
      if not (List.for_all (fun r -> ok_terminator (last r)) rs) then
        Acc.add acc "failed" 1
    end
    else List.iter (statement c op) op.lines;
    Acc.add acc "request" (now_ns () - t0)
  in
  let gc0 = Gc.quick_stat () in
  let csr0 = Graph.csr_build_ns_total () in
  let ops, wall = replay streams ~seconds serve in
  let gc1 = Gc.quick_stat () in
  (* whole-pass counters go into the accumulator too *)
  let acc = Acc.create () in
  Array.iter (Acc.merge acc) accs;
  Acc.add acc "csr_ns"
    (Int64.to_int (Int64.sub (Graph.csr_build_ns_total ()) csr0));
  Acc.add acc "major_gcs" (gc1.Gc.major_collections - gc0.Gc.major_collections);
  Array.iter
    (fun s ->
      let st = Session.cache_stats s in
      Acc.add acc "cache_hits" st.Plan_cache.hits;
      Acc.add acc "cache_lookups" (st.Plan_cache.hits + st.Plan_cache.misses))
    (Array.append sessions (Array.map Service.session services));
  (acc, ops, wall, shared)

(* ------------------------------------------------------------------ *)
(* :ping over TCP                                                     *)
(* ------------------------------------------------------------------ *)

let ping_rtt shared ~n =
  match
    Server.start ~port:0
      ~make_service:(fun () -> Service.create ~readers ~config shared)
      ()
  with
  | Error m -> fail "server: %s" m
  | Ok server ->
      let port = Server.port server in
      (* the client runs on its own domain so it never contends with
         the connection thread for the runtime lock *)
      let client =
        Domain.spawn (fun () ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.setsockopt fd Unix.TCP_NODELAY true;
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            let ic = Unix.in_channel_of_descr fd in
            let oc = Unix.out_channel_of_descr fd in
            let rtts =
              Array.init n (fun _ ->
                  let t0 = now_ns () in
                  output_string oc ":ping\n";
                  flush oc;
                  ignore (input_line ic : string);
                  now_ns () - t0)
            in
            output_string oc ":quit\n";
            flush oc;
            ignore (input_line ic : string);
            Unix.close fd;
            rtts)
      in
      let rtts = Domain.join client in
      Server.stop server;
      Array.sort compare rtts;
      rtts.(n / 2)

(* ------------------------------------------------------------------ *)
(* trace                                                              *)
(* ------------------------------------------------------------------ *)

let trace db stream_path seconds alloc_ops =
  (* the server binary's minor heap, so collections land as they do
     there *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let streams = load_stream stream_path in
  let (store, session), recover_ns = timed (fun () -> open_db db) in
  let g0 = Session.graph session in
  let log = { lock = Mutex.create (); spans = [] } in
  let sink = timed_sink store log in
  let a0 = pass_alloc g0 streams ~max_ops:alloc_ops in
  let aa, ops_a, wall_a = pass_untraced g0 sink streams ~seconds:(seconds /. 2.) in
  let wal_path = Filename.concat db "journal.wal" in
  let bytes0 = file_size wal_path in
  let fsyncs () =
    match Store.wal_stats store with Some s -> s.Cypher_storage.Wal.fsyncs | None -> 0
  in
  let fsyncs0 = fsyncs () in
  log.spans <- [];
  let ab, ops_b, wall_b, shared_b =
    pass_traced g0 sink log streams ~seconds:(seconds /. 2.)
  in
  let cstats = Shared.stats shared_b in
  let rels_end = Graph.rel_count (snd (Shared.current shared_b)) in
  let wal_bytes = file_size wal_path - bytes0 in
  let fsyncs_b = fsyncs () - fsyncs0 in
  let rtt = ping_rtt shared_b ~n:2000 in
  Store.close store;
  let commits = cstats.Shared.commits in
  let per_commit x = if commits = 0 then 0. else float_of_int x /. float_of_int commits in
  let us name acc = match Acc.mean acc name with Some v -> v /. 1e3 | None -> nan in
  let total = Acc.sum ab "request" in
  let share name = float_of_int (Acc.sum ab name) /. float_of_int (max 1 total) in
  let attributed =
    List.fold_left
      (fun s n -> s + Acc.sum ab n)
      0
      [ "prepare"; "execute"; "pool"; "render"; "commit_wait"; "wal"; "tx_handle" ]
  in
  let tput_a = float_of_int ops_a /. secs wall_a in
  let tput_b = float_of_int ops_b /. secs wall_b in
  (* per-class figures for the report: absent classes print nan *)
  let report =
    [
      ("server.handle_read_us", us "handle_read" aa);
      ("server.handle_write_us", us "handle_write" aa);
      ("server.handle_tx_us", us "handle_tx" aa);
      ("server.commit_wait_us", us "commit_wait" ab);
      ("core.execute_read_us", us "execute_read" ab);
      ("core.execute_write_us", us "execute_write" ab);
      ("core.execute_merge_same_us", us "execute_merge_same" ab);
      ("core.execute_merge_all_us", us "execute_merge_all" ab);
      ("core.execute_set_us", us "execute_set" ab);
      ("core.execute_delete_us", us "execute_delete" ab);
      ("core.alloc_words_read", Option.value ~default:nan (Acc.mean a0 "alloc_read"));
      ("core.alloc_words_write", Option.value ~default:nan (Acc.mean a0 "alloc_write"));
      ( "core.alloc_words_merge_same",
        Option.value ~default:nan (Acc.mean a0 "alloc_merge_same") );
      ("storage.wal_append_us",
        (match log.spans with
         | [] -> nan
         | spans ->
             float_of_int (List.fold_left (fun s (a, b) -> s + b - a) 0 spans)
             /. float_of_int (List.length spans) /. 1e3));
      ("graph.csr_build_ms", float_of_int (Acc.sum ab "csr_ns") /. 1e6);
      ("trace.alloc_statements", float_of_int (Acc.count a0 "alloc"));
      ("trace.untraced_ops", float_of_int ops_a);
      ("trace.traced_ops", float_of_int ops_b);
    ]
  in
  List.iter
    (fun (k, v) ->
      if Float.is_nan v then Printf.printf "  %-34s n/a (no such requests)\n" k
      else Printf.printf "  %-34s %.3f\n" k v)
    report;
  json_line
    [
      ("server.ping_rtt_us", float_of_int rtt /. 1e3);
      ("server.handle_us", us "handle" aa);
      ("server.commits_per_flush",
        if cstats.Shared.flushes = 0 then 0.
        else float_of_int commits /. float_of_int cstats.Shared.flushes);
      ("server.pool_share", share "pool");
      ("server.commit_wait_share", share "commit_wait");
      ("server.tx_handle_share", share "tx_handle");
      ("parser.parse_us", us "parse" a0);
      ("ast.validate_us", us "validate" a0);
      ("core.prepare_us", us "prepare" ab);
      ("core.plan_us", us "plan" a0);
      ("core.plan_cache_hit_ratio",
        float_of_int (Acc.sum ab "cache_hits")
        /. float_of_int (max 1 (Acc.sum ab "cache_lookups")));
      ("core.execute_us", us "execute" ab);
      ("core.prepare_share", share "prepare");
      ("core.execute_share", share "execute");
      ("core.alloc_words", Option.value ~default:nan (Acc.mean a0 "alloc"));
      ("graph.csr_build_share", share "csr_ns");
      ("graph.rel_drift",
        float_of_int rels_end /. float_of_int (max 1 (Graph.rel_count g0)));
      ("table.render_us", us "render" ab);
      ("table.render_share", share "render");
      ("storage.wal_append_share", share "wal");
      ("storage.fsyncs_per_commit", per_commit fsyncs_b);
      ("storage.wal_bytes_per_commit", per_commit wal_bytes);
      ("storage.recover_s", secs recover_ns);
      ("gc.major_per_kop",
        float_of_int (Acc.sum ab "major_gcs") *. 1000. /. float_of_int (max 1 ops_b));
      ("trace.unattributed_share",
        float_of_int (total - attributed) /. float_of_int (max 1 total));
      ("trace.overhead", tput_b /. tput_a);
      ("trace.failed",
        float_of_int (Acc.sum aa "failed" + Acc.sum ab "failed" + Acc.sum a0 "failed"));
      ("trace.attempted", float_of_int (ops_a + ops_b));
    ]

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "setup"; db; nodes; rels ] -> setup db nodes rels
  | [ "trace"; db; stream; seconds; alloc_ops ] ->
      trace db stream (float_of_string seconds) (int_of_string alloc_ops)
  | _ ->
      fail
        "usage: pbtool setup DB NODES RELS | pbtool trace DB STREAM SECONDS \
         ALLOC_OPS"
