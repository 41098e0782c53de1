(** Video frame formats.

    Dimensions are [(rows, cols)] to match the row-major tensors used
    throughout.  The paper's Figure 2 pipeline is
    HDTV 1920x1080 -> 720x1080 -> DVD 720x480 (width x height); in
    (rows, cols) terms: 1080x1920 -> 1080x720 -> 480x720. *)

type t = { name : string; rows : int; cols : int }

val cif : t
(** Common Intermediate Format, 288x352 (Section III). *)

val qcif : t

val hdtv_1080 : t
(** The evaluation's input format: 1080x1920 (Section VIII). *)

val check : rows:int -> cols:int -> (unit, string) result
(** [Ok ()] when the downscaler accepts a [rows] x [cols] frame (rows a
    positive multiple of 9, cols a positive multiple of 8); otherwise
    an [Error] saying what is wrong, for drivers to report. *)

val after_horizontal : t -> t
(** Result of the horizontal filter: columns scaled by 3/8.  Raises
    [Invalid_argument] when the width is not a multiple of 8. *)

val after_vertical : t -> t
(** Result of the vertical filter: rows scaled by 4/9.  Raises
    [Invalid_argument] when the height is not a multiple of 9. *)

val downscaled : t -> t
(** Both filters; HDTV 1080x1920 becomes DVD-resolution 480x720. *)

val shape : t -> Ndarray.Shape.t

val pixels : t -> int

val pp : Stdlib.Format.formatter -> t -> unit
