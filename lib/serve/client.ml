module P = Protocol
module J = Cpufree_core.Json

type t = { fd : Unix.file_descr; buf : P.Framebuf.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Ok { fd; buf = P.Framebuf.create () }
  | exception Unix.Unix_error (err, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (Printf.sprintf "connect %s: %s" path (Unix.error_message err))

let send t req = P.write_frame t.fd [ J.to_string ~indent:0 (P.request_to_json req) ]
let recv t = Result.bind (P.read_frame t.fd t.buf) P.response_of_frame

let request t req =
  send t req;
  recv t

(* Only a valid scenario's line reads back as the same scenario. *)
let run t ~id sc =
  Result.bind (Cpufree_core.Scenario.validate sc) (fun () ->
      request t { P.req_id = id; req_op = P.Run sc })

let stats t ~id =
  match request t { P.req_id = id; req_op = P.Stats } with
  | Error _ as e -> e
  | Ok (P.Ok_resp { body = P.Stats_result s; _ }) -> Ok s
  | Ok _ -> Error "unexpected response to stats"

let shutdown t ~id =
  match request t { P.req_id = id; req_op = P.Shutdown } with
  | Error _ as e -> e
  | Ok (P.Ok_resp { body = P.Shutdown_ack; _ }) -> Ok ()
  | Ok _ -> Error "unexpected response to shutdown"

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
