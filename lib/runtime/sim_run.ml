module Protocol = Dsm_core.Protocol
module Engine = Dsm_sim.Engine
module Network = Dsm_sim.Network
module Rng = Dsm_sim.Rng
module Spec = Dsm_workload.Spec
module Metrics = Dsm_obs.Metrics
module V = Dsm_vclock.Vector_clock

type outcome = {
  execution : Execution.t;
  protocol_name : string;
  messages_sent : int;
  messages_delivered : int;
  engine_steps : int;
  end_time : float;
  buffer_high_watermarks : int array;
  total_buffered : int array;
  skipped_writes : int;
}

let write_value ~proc ~seq = (proc * 1_000_000) + seq

(* Pre-resolved protocol instrument handles: the hot path never touches
   the registry. With a null registry every update is a dead branch. *)
type probes = {
  p_live : bool;
  p_applies : Metrics.counter;
  p_delayed : Metrics.counter;
  p_skips : Metrics.counter;
  p_reads : Metrics.counter;
  p_writes : Metrics.counter;
  p_merges : Metrics.counter;
  p_occupancy : Metrics.gauge;
}

let probes metrics =
  {
    p_live = Metrics.enabled metrics;
    p_applies = Metrics.counter metrics "proto_applies";
    p_delayed = Metrics.counter metrics "proto_delayed_applies";
    p_skips = Metrics.counter metrics "proto_skips";
    p_reads = Metrics.counter metrics "proto_reads";
    p_writes = Metrics.counter metrics "proto_writes";
    p_merges = Metrics.counter metrics "proto_wco_merges_on_read";
    p_occupancy = Metrics.gauge metrics "buffer_occupancy";
  }

let run (module P : Protocol.S) ~spec ~latency ?(fifo = false)
    ?(faults = Network.no_faults) ?(seed = 1) ?(max_steps = 10_000_000)
    ?(metrics = Metrics.null ()) ?(wire = Dsm_obs.Wire.null ())
    ?(recorder = Dsm_obs.Timeseries.null ()) ?(scrape_every = 25.)
    ?(queue = Engine.Indexed) ?(arena = true) () =
  let protocol =
    (module P : Protocol.S with type t = P.t and type msg = P.msg)
  in
  let n = spec.Spec.n in
  let cfg = Protocol.config ~n ~m:spec.Spec.m in
  let schedule = Dsm_workload.Generator.generate spec in
  let engine = Engine.create ~queue () in
  let rng = Rng.create seed in
  let network =
    Network.create ~engine ~rng ~n
      ~latency:(fun ~src:_ ~dst:_ -> latency)
      ~fifo ~arena ~faults ~metrics ~wire ~measure:P.msg_frame
      ~sizer:(fun m -> Dsm_obs.Wire.frame_bytes (P.msg_frame m))
      ()
  in
  Replica_host.schedule_scrapes engine recorder ~every:scrape_every
    ~horizon:(fun () -> Replica_host.ops_horizon schedule);
  let execution = Execution.create ~n ~m:spec.Spec.m () in
  let probes = probes metrics in
  let protos = Array.init n (fun me -> P.create cfg ~me) in
  (* every recorded event is stamped with the engine's clock; the
     apply and skip instruments count what the shared rule records *)
  let record proc kind =
    Execution.record execution ~proc ~time:(Engine.now engine) kind;
    if probes.p_live then
      match kind with
      | Execution.Apply { delayed; _ } ->
          Metrics.incr probes.p_applies;
          if delayed then Metrics.incr probes.p_delayed
      | Execution.Skip _ -> Metrics.incr probes.p_skips
      | _ -> ()
  in
  let transmit src = function
    | Protocol.Broadcast m -> Network.broadcast network ~src m
    | Protocol.Unicast { dst; msg } -> Network.send network ~src ~dst msg
  in
  Array.iteri
    (fun me proto ->
      Network.set_handler network me (fun ~src ~at:_ msg ->
          Replica_host.receive protocol ~record ~transmit me proto ~src msg;
          if probes.p_live then
            Metrics.set probes.p_occupancy (P.buffered proto)))
    protos;
  let write proc ~var ~value =
    let _, eff = P.write protos.(proc) ~var ~value in
    if probes.p_live then Metrics.incr probes.p_writes;
    Replica_host.step protocol ~record ~transmit proc eff
  in
  let read proc ~var =
    let t = protos.(proc) in
    if not probes.p_live then begin
      let value, read_from = P.read t ~var in
      record proc (Execution.Return { var; value; read_from })
    end
    else begin
      (* the interesting OptP counter: did this read grow Write_co —
         i.e. absorb a LastWriteOn vector — creating a new read-from
         ordering obligation? (ANBKH never counts here: its clock moves
         on deliveries instead — false causality.) *)
      let before = V.sum (P.local_clock t) in
      let value, read_from = P.read t ~var in
      let after = V.sum (P.local_clock t) in
      Metrics.incr probes.p_reads;
      if after > before then Metrics.incr probes.p_merges;
      record proc (Execution.Return { var; value; read_from })
    end
  in
  (* schedule every operation at its issue time *)
  Array.iteri
    (fun proc ops ->
      let write_seq = ref 0 in
      List.iter
        (fun { Spec.at; op } ->
          match op with
          | Spec.Do_write { var } ->
              incr write_seq;
              let seq = !write_seq in
              Engine.schedule_at engine (Dsm_sim.Sim_time.of_float at)
                (fun () -> write proc ~var ~value:(write_value ~proc ~seq))
          | Spec.Do_read { var } ->
              Engine.schedule_at engine (Dsm_sim.Sim_time.of_float at)
                (fun () -> read proc ~var))
        ops)
    schedule;
  Replica_host.drain engine ~max_steps
    (Printf.sprintf "Sim_run: %s (liveness bug?)" P.name);
  Replica_host.scrape_buffers protocol metrics (Array.to_list protos);
  {
    execution;
    protocol_name = P.name;
    messages_sent = Network.messages_sent network;
    messages_delivered = Network.messages_delivered network;
    engine_steps = Engine.steps_executed engine;
    end_time = Dsm_sim.Sim_time.to_float (Engine.now engine);
    buffer_high_watermarks = Array.map P.buffer_high_watermark protos;
    total_buffered = Array.map P.total_buffered protos;
    skipped_writes = Execution.skip_count execution;
  }

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>%s: %d events, %d msgs sent / %d delivered, t_end=%.1f@,\
     applies=%d delays=%d skips=%d buffer-high=%a@]"
    o.protocol_name (Execution.event_count o.execution) o.messages_sent
    o.messages_delivered o.end_time
    (Execution.apply_count o.execution)
    (Execution.delay_count o.execution)
    o.skipped_writes
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (Array.to_list o.buffer_high_watermarks)
