(* Versioned binary checkpoint images.

   An image is a framed container around one marshaled OCaml value:

     magic | header (Marshal, no flags) | payload (Marshal, Closures)

   The payload is written with [Marshal.Closures] in a single call, so
   the whole object graph — engine event queue, kernels, VPEs, the
   closures inside pending protocol operations — is captured with all
   sharing and physical equality intact. The OCaml runtime embeds a
   digest of the program's code in closure blocks, which makes images
   same-binary artifacts by construction: a rebuilt binary refuses to
   read them (reported here as a load error, not a crash). The header
   carries our own format version and payload digest on top of that,
   so stale or truncated images are rejected with a message instead of
   being misread. *)

let magic = "SEMCKPT1"
let format_version = 3

type header = {
  version : int;
  kind : string;
  label : string;
  position : int64;
  fingerprint : string;
  payload_digest : string;
}

let save ?(version = format_version) ~kind ?(label = "") ?(position = 0L) ?(fingerprint = "")
    payload =
  let body = Marshal.to_bytes payload [ Marshal.Closures ] in
  let header =
    {
      version;
      kind;
      label;
      position;
      fingerprint;
      payload_digest = Digest.bytes body;
    }
  in
  let head = Marshal.to_bytes header [] in
  let buf = Buffer.create (String.length magic + Bytes.length head + Bytes.length body) in
  Buffer.add_string buf magic;
  Buffer.add_bytes buf head;
  Buffer.add_bytes buf body;
  Buffer.to_bytes buf

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let header_at image =
  let mlen = String.length magic in
  if Bytes.length image < mlen || Bytes.sub_string image 0 mlen <> magic then
    Error "not a SemperOS checkpoint image (bad magic)"
  else
    match Marshal.from_bytes image mlen with
    | (header : header) -> Ok (header, mlen + Marshal.total_size image mlen)
    | exception _ -> Error "corrupt checkpoint header"

let header_of_bytes image =
  let* header, _ = header_at image in
  Ok header

let load ~kind image =
  let* header, body_off = header_at image in
  if header.version <> format_version then
    Error
      (Printf.sprintf "checkpoint format version %d, this build reads version %d — re-record"
         header.version format_version)
  else if header.kind <> kind then
    Error (Printf.sprintf "checkpoint holds a %S run, expected %S" header.kind kind)
  else begin
    let body = Bytes.sub image body_off (Bytes.length image - body_off) in
    if Digest.bytes body <> header.payload_digest then
      Error "checkpoint payload digest mismatch (truncated or corrupted image)"
    else
      match Marshal.from_bytes body 0 with
      | payload -> Ok (header, payload)
      | exception _ ->
        Error
          "checkpoint payload unreadable — images embed the writing binary's code digest and \
           can only be restored by the same build; re-record after rebuilding"
  end

let write path image =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_bytes oc image)

let read path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        let image = Bytes.create len in
        really_input ic image 0 len;
        Ok image)
