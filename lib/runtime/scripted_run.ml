module Protocol = Dsm_core.Protocol
module Engine = Dsm_sim.Engine

type action =
  | Write of { proc : int; var : int; value : int }
  | Read of { proc : int; var : int }

type outcome = {
  execution : Execution.t;
  history : Dsm_memory.History.t;
  protocol_name : string;
  engine_steps : int;
}

let run (module P : Protocol.S) ~n ~m ~ops ~delay ?(control_delay = 1.0)
    ?(max_steps = 1_000_000) () =
  let cfg = Protocol.config ~n ~m in
  let engine = Engine.create () in
  let execution = Execution.create ~n ~m () in
  let protos = Array.init n (fun me -> P.create cfg ~me) in
  let record proc kind =
    Execution.record execution ~proc ~time:(Engine.now engine) kind
  in
  let protocol =
    (module P : Protocol.S with type t = P.t and type msg = P.msg)
  in
  (* each carried write's transit time is the caller's; control
     messages take [control_delay] *)
  let rec transmit src outbound =
    let msg, dsts =
      match outbound with
      | Protocol.Broadcast msg ->
          (msg, List.filter (fun d -> d <> src) (List.init n Fun.id))
      | Protocol.Unicast { dst; msg } -> (msg, [ dst ])
    in
    List.iter
      (fun dst ->
        let transit =
          match P.msg_writes msg with
          | [] -> control_delay
          | (dot, _, _) :: _ -> delay ~src ~dst ~dot
        in
        Engine.schedule_after engine transit (fun () ->
            Replica_host.receive protocol ~record ~transmit dst protos.(dst)
              ~src msg))
      dsts
  in
  List.iter
    (fun (at, action) ->
      Engine.schedule_at engine (Dsm_sim.Sim_time.of_float at) (fun () ->
          match action with
          | Write { proc; var; value } ->
              let _dot, eff = P.write protos.(proc) ~var ~value in
              Replica_host.step protocol ~record ~transmit proc eff
          | Read { proc; var } ->
              let value, read_from = P.read protos.(proc) ~var in
              record proc (Execution.Return { var; value; read_from })))
    ops;
  Replica_host.drain engine ~max_steps ("Scripted_run: " ^ P.name);
  {
    execution;
    history = Execution.to_history execution;
    protocol_name = P.name;
    engine_steps = Engine.steps_executed engine;
  }

let quick_history p ~n ~m ~ops ~delay =
  (run p ~n ~m ~ops ~delay ()).history
