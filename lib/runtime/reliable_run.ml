module Protocol = Dsm_core.Protocol
module Engine = Dsm_sim.Engine
module Network = Dsm_sim.Network
module Reliable_channel = Dsm_sim.Reliable_channel
module Rng = Dsm_sim.Rng
module Spec = Dsm_workload.Spec

type outcome = {
  execution : Execution.t;
  protocol_name : string;
  payloads_sent : int;
  frames_sent : int;
  frames_dropped : int;
  frames_duplicated : int;
  retransmissions : int;
  duplicates_discarded : int;
  engine_steps : int;
  end_time : float;
}

let run (module P : Protocol.S) ~spec ~latency ~faults
    ?(retransmit_after = 50.) ?(seed = 1) ?(max_steps = 20_000_000)
    ?(metrics = Dsm_obs.Metrics.null ()) ?(wire = Dsm_obs.Wire.null ())
    ?(recorder = Dsm_obs.Timeseries.null ()) ?(scrape_every = 25.) () =
  let cfg = Protocol.config ~n:spec.Spec.n ~m:spec.Spec.m in
  let schedule = Dsm_workload.Generator.generate spec in
  let engine = Engine.create () in
  let rng = Rng.create seed in
  (* the accountant sees channel frames: data frames price the
     protocol's shape plus the channel envelope, retransmissions and
     acks appear under their own causes *)
  let measure = Reliable_channel.wire_frame P.msg_frame in
  let network =
    Network.create ~engine ~rng ~n:spec.Spec.n
      ~latency:(fun ~src:_ ~dst:_ -> latency)
      ~faults ~mangle:Reliable_channel.corrupt_frame ~metrics
      ~wire ~measure
      ~sizer:(fun f -> Dsm_obs.Wire.frame_bytes (measure f))
      ()
  in
  Replica_host.schedule_scrapes engine recorder ~every:scrape_every
    ~horizon:(fun () -> Replica_host.ops_horizon schedule);
  let channel =
    Reliable_channel.create ~engine ~network ~retransmit_after ~metrics ()
  in
  let execution = Execution.create ~n:spec.Spec.n ~m:spec.Spec.m () in
  let protos = Array.init spec.Spec.n (fun me -> P.create cfg ~me) in
  let protocol =
    (module P : Protocol.S with type t = P.t and type msg = P.msg)
  in
  let record proc kind =
    Execution.record execution ~proc ~time:(Engine.now engine) kind
  in
  let transmit src = function
    | Protocol.Broadcast m -> Reliable_channel.broadcast channel ~src m
    | Protocol.Unicast { dst; msg } ->
        Reliable_channel.send channel ~src ~dst msg
  in
  Array.iteri
    (fun dst proto ->
      Reliable_channel.set_handler channel dst (fun ~src ~at:_ msg ->
          Replica_host.receive protocol ~record ~transmit dst proto ~src msg))
    protos;
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
                  let value =
                    Sim_run.write_value ~proc ~seq:!write_seq
                  in
                  let _, eff = P.write protos.(proc) ~var ~value in
                  Replica_host.step protocol ~record ~transmit proc eff
              | Spec.Do_read { var } ->
                  let value, read_from = P.read protos.(proc) ~var in
                  record proc (Execution.Return { var; value; read_from })))
        ops)
    schedule;
  Replica_host.drain engine ~max_steps ("Reliable_run: " ^ P.name);
  {
    execution;
    protocol_name = P.name;
    payloads_sent = Reliable_channel.payloads_sent channel;
    frames_sent = Network.messages_sent network;
    frames_dropped = Network.messages_dropped network;
    frames_duplicated = Network.messages_duplicated network;
    retransmissions = Reliable_channel.retransmissions channel;
    duplicates_discarded = Reliable_channel.duplicates_discarded channel;
    engine_steps = Engine.steps_executed engine;
    end_time = Dsm_sim.Sim_time.to_float (Engine.now engine);
  }

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>%s over lossy links: %d payloads, %d frames (%d dropped, %d \
     duplicated), %d retransmissions, %d duplicates discarded, \
     t_end=%.1f@]"
    o.protocol_name o.payloads_sent o.frames_sent o.frames_dropped
    o.frames_duplicated o.retransmissions o.duplicates_discarded o.end_time
