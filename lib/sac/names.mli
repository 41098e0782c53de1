(** Fresh-name supply for program transformations.

    Generated names contain a ['$'], which the lexer rejects, so they
    can never collide with source identifiers.  The numbering is a
    function of the compile, not of the process: each compile entry
    ({!Pipeline.optimize}, [Sac_cuda.Compile.plan]) runs under its own
    {!with_supply}, so compiling one source twice, or on two domains at
    once, names everything identically. *)

val fresh : string -> string
(** [fresh base] is a new name derived from [base]: the root of [base]
    (its part before any ['$']) and the supply's next number. *)

val base : string -> string
(** Strip the freshness suffix (for readable diagnostics). *)

val with_supply : string list -> (unit -> 'a) -> 'a
(** [with_supply names f] runs [f] with a new supply on this domain,
    numbering from just above the largest ['$'] suffix among [names]
    (the names the compile's input already binds), and restores the
    previous supply when [f] returns or raises.  Starting above those
    suffixes matters: {!fresh} keeps only the root, so [fresh "a$5_c"]
    must not mint [a$5] again.  Outside any [with_supply], the
    domain's own counter is used and never reset. *)
