open Ndarray

let check name ~rows ~cols cond =
  if not cond then
    invalid_arg (Printf.sprintf "Downscaler_model.%s (got %dx%d)" name rows cols)

(* Figure 10's tiler specification boxes, generalised from 1080x1920 to
   any frame size. *)
let horizontal ~rows ~cols =
  check "horizontal: cols must be a positive multiple of 8 and rows positive"
    ~rows ~cols
    (cols mod 8 = 0 && cols > 0 && rows > 0);
  let reps = cols / 8 in
  let inner =
    Model.Elementary
      {
        name = "HorizontalReduction";
        ip = "HorizontalReduction";
        inputs = [ { Model.pname = "pattern_in"; pshape = [| 11 |] } ];
        outputs = [ { Model.pname = "pattern_out"; pshape = [| 3 |] } ];
      }
  in
  Model.Repetitive
    {
      name = "HorizontalFilter";
      repetition = [| rows; reps |];
      inner;
      in_tilings =
        [
          {
            Model.outer_port = "in";
            inner_port = "pattern_in";
            tiler =
              Tiler.make ~origin:[| 0; 0 |]
                ~fitting:(Linalg.of_lists [ [ 0 ]; [ 1 ] ])
                ~paving:(Linalg.of_lists [ [ 1; 0 ]; [ 0; 8 ] ]);
          };
        ];
      out_tilings =
        [
          {
            Model.outer_port = "out";
            inner_port = "pattern_out";
            tiler =
              Tiler.make ~origin:[| 0; 0 |]
                ~fitting:(Linalg.of_lists [ [ 0 ]; [ 1 ] ])
                ~paving:(Linalg.of_lists [ [ 1; 0 ]; [ 0; 3 ] ]);
          };
        ];
      inputs = [ { Model.pname = "in"; pshape = [| rows; cols |] } ];
      outputs = [ { Model.pname = "out"; pshape = [| rows; 3 * reps |] } ];
    }

let vertical ~rows ~cols =
  check "vertical: rows must be a positive multiple of 9 and cols positive"
    ~rows ~cols
    (rows mod 9 = 0 && cols > 0 && rows > 0);
  let reps = rows / 9 in
  let inner =
    Model.Elementary
      {
        name = "VerticalReduction";
        ip = "VerticalReduction";
        inputs = [ { Model.pname = "pattern_in"; pshape = [| 14 |] } ];
        outputs = [ { Model.pname = "pattern_out"; pshape = [| 4 |] } ];
      }
  in
  Model.Repetitive
    {
      name = "VerticalFilter";
      repetition = [| reps; cols |];
      inner;
      in_tilings =
        [
          {
            Model.outer_port = "in";
            inner_port = "pattern_in";
            tiler =
              Tiler.make ~origin:[| 0; 0 |]
                ~fitting:(Linalg.of_lists [ [ 1 ]; [ 0 ] ])
                ~paving:(Linalg.of_lists [ [ 9; 0 ]; [ 0; 1 ] ]);
          };
        ];
      out_tilings =
        [
          {
            Model.outer_port = "out";
            inner_port = "pattern_out";
            tiler =
              Tiler.make ~origin:[| 0; 0 |]
                ~fitting:(Linalg.of_lists [ [ 1 ]; [ 0 ] ])
                ~paving:(Linalg.of_lists [ [ 4; 0 ]; [ 0; 1 ] ]);
          };
        ];
      inputs = [ { Model.pname = "in"; pshape = [| rows; cols |] } ];
      outputs = [ { Model.pname = "out"; pshape = [| 4 * reps; cols |] } ];
    }

let plane ~rows ~cols =
  let h = horizontal ~rows ~cols in
  let h_cols = cols / 8 * 3 in
  let v = vertical ~rows ~cols:h_cols in
  Model.Compound
    {
      name = "PlaneDownscaler";
      parts = [ ("hf", h); ("vf", v) ];
      connections =
        [
          { Model.cfrom = Model.Boundary "in"; cto = Model.Part ("hf", "in") };
          {
            Model.cfrom = Model.Part ("hf", "out");
            cto = Model.Part ("vf", "in");
          };
          { Model.cfrom = Model.Part ("vf", "out"); cto = Model.Boundary "out" };
        ];
      inputs = [ { Model.pname = "in"; pshape = [| rows; cols |] } ];
      outputs =
        [
          {
            Model.pname = "out";
            pshape = [| rows / 9 * 4; h_cols |];
          };
        ];
    }

let frame ~rows ~cols =
  let h_cols = cols / 8 * 3 in
  let out_rows = rows / 9 * 4 in
  let plane_parts =
    List.concat_map
      (fun c ->
        [
          (c ^ "hf", horizontal ~rows ~cols);
          (c ^ "vf", vertical ~rows ~cols:h_cols);
        ])
      [ "r"; "g"; "b" ]
  in
  let plane_connections c =
    [
      {
        Model.cfrom = Model.Boundary (c ^ "_in");
        cto = Model.Part (c ^ "hf", "in");
      };
      {
        Model.cfrom = Model.Part (c ^ "hf", "out");
        cto = Model.Part (c ^ "vf", "in");
      };
      {
        Model.cfrom = Model.Part (c ^ "vf", "out");
        cto = Model.Boundary (c ^ "_out");
      };
    ]
  in
  Model.Compound
    {
      name = "Downscaler";
      parts = plane_parts;
      connections = List.concat_map plane_connections [ "r"; "g"; "b" ];
      inputs =
        List.map
          (fun c -> { Model.pname = c ^ "_in"; pshape = [| rows; cols |] })
          [ "r"; "g"; "b" ];
      outputs =
        List.map
          (fun c ->
            { Model.pname = c ^ "_out"; pshape = [| out_rows; h_cols |] })
          [ "r"; "g"; "b" ];
    }
