module Protocol = Dsm_core.Protocol
module Pp = Dsm_core.Opt_p_partial
module Replication = Dsm_core.Replication
module Engine = Dsm_sim.Engine
module Network = Dsm_sim.Network
module Rng = Dsm_sim.Rng
module Spec = Dsm_workload.Spec

type outcome = {
  execution : Execution.t;
  history : Dsm_memory.History.t;
  replication : Replication.t;
  messages_sent : int;
  engine_steps : int;
  end_time : float;
  buffer_high_watermarks : int array;
}

(* generic over the buffer instantiation so the differential suite can
   drive the indexed and the reference scanning variants identically *)
let run_with (module P : Pp.IMPL) ~replication ~spec ~latency ?(seed = 1)
    ?(max_steps = 10_000_000) ?(metrics = Dsm_obs.Metrics.null ())
    ?(wire = Dsm_obs.Wire.null ()) ?(recorder = Dsm_obs.Timeseries.null ())
    ?(scrape_every = 25.) ?(queue = Engine.Indexed) ?(arena = true) () =
  let n = spec.Spec.n and m = spec.Spec.m in
  if Replication.n replication <> n || Replication.m replication <> m then
    invalid_arg "Partial_run.run: replication map dimensions mismatch";
  let schedule = Dsm_workload.Generator.generate spec in
  let engine = Engine.create ~queue () in
  let rng = Rng.create seed in
  let network =
    Network.create ~engine ~rng ~n
      ~latency:(fun ~src:_ ~dst:_ -> latency)
      ~arena ~metrics ~wire ~measure:Pp.msg_frame
      ~sizer:(fun msg -> Dsm_obs.Wire.frame_bytes (Pp.msg_frame msg))
      ()
  in
  Replica_host.schedule_scrapes engine recorder ~every:scrape_every
    ~horizon:(fun () -> Replica_host.ops_horizon schedule);
  let execution = Execution.create ~n ~m () in
  let protos = Array.init n (fun me -> P.create replication ~me) in
  let record proc kind =
    Execution.record execution ~proc ~time:(Engine.now engine) kind
  in
  let record_applies proc records =
    List.iter
      (fun (a : Protocol.apply_record) ->
        record proc
          (Execution.Apply
             {
               dot = a.adot;
               var = a.avar;
               value = a.avalue;
               delayed = a.afrom_buffer;
             }))
      records
  in
  Array.iteri
    (fun me _ ->
      Network.set_handler network me (fun ~src ~at:_ (msg : Pp.message) ->
          record me (Execution.Receipt { dot = msg.Pp.dot; src });
          record_applies me (P.receive protos.(me) ~src msg)))
    protos;
  (* fold each op's variable onto the issuing process's replicated set,
     preserving the workload's distributional shape *)
  let fold_var proc var =
    let mine = Array.of_list (Replication.vars_of replication ~proc) in
    mine.(var mod Array.length mine)
  in
  Array.iteri
    (fun proc ops ->
      let write_seq = ref 0 in
      List.iter
        (fun { Spec.at; op } ->
          Engine.schedule_at engine (Dsm_sim.Sim_time.of_float at)
            (fun () ->
              match op with
              | Spec.Do_write { var } ->
                  incr write_seq;
                  let var = fold_var proc var in
                  let value = Sim_run.write_value ~proc ~seq:!write_seq in
                  let _dot, msg, dests, local =
                    P.write protos.(proc) ~var ~value
                  in
                  record proc
                    (Execution.Send
                       { dot = msg.Pp.dot; var; value = msg.Pp.value });
                  record_applies proc [ local ];
                  List.iter
                    (fun dst -> Network.send network ~src:proc ~dst msg)
                    dests
              | Spec.Do_read { var } ->
                  let var = fold_var proc var in
                  let value, read_from = P.read protos.(proc) ~var in
                  record proc (Execution.Return { var; value; read_from })))
        ops)
    schedule;
  Replica_host.drain engine ~max_steps "Partial_run (liveness bug?)";
  {
    execution;
    history = Execution.to_history execution;
    replication;
    messages_sent = Network.messages_sent network;
    engine_steps = Engine.steps_executed engine;
    end_time = Dsm_sim.Sim_time.to_float (Engine.now engine);
    buffer_high_watermarks =
      Array.map (fun p -> P.buffer_high_watermark p) protos;
  }

let run = run_with (module Pp)
let run_scan = run_with (module Pp.Scan)

let check outcome =
  Checker.check
    ~replication:(fun ~proc ~var ->
      Replication.replicates outcome.replication ~proc ~var)
    outcome.execution
