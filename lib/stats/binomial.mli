(** Confidence bounds on an empirical failure probability.

    The soak harness observes [failures] out of [trials] Bernoulli runs and
    must compare the unknown true rate against a theoretical bound (e.g.
    the paper's [1/poly(k)]).  The Wilson score interval behaves well at
    the boundary rates the harness lives at (0 observed failures out of
    many trials), where the normal approximation collapses. *)

(** [wilson ~failures ~trials ~z] is the Wilson score interval
    [(lower, upper)] for the failure probability at critical value [z]
    (e.g. [1.96] for 95%).  Requires [0 <= failures <= trials] and
    [trials >= 1]. *)
val wilson : failures:int -> trials:int -> z:float -> float * float

(** Upper end of the 95% Wilson interval — the largest failure rate still
    plausibly consistent with the observations. *)
val upper95 : failures:int -> trials:int -> float
