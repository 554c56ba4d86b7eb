(** The simulator packaged as a pluggable transport backend.

    [of_config config] is {!Engine.run} behind the
    {!Gcs_transport.Iface.BACKEND} signature (named ["sim"]): the seed
    becomes the engine PRNG, packets travel by value (the codec is held
    only for the signature — encoding is exercised by the codec's own
    round-trip tests and by the bus), and [stop] ends the run after the
    first event at which it holds. Byte-for-byte the pre-transport
    behavior: a run through [of_config] and a direct {!Engine.run} with
    [Prng.create seed] produce identical results. *)

val of_config : Engine.config -> Gcs_transport.Iface.backend
