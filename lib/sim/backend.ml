let of_config (config : Engine.config) : Gcs_transport.Iface.backend =
  (module struct
    let name = "sim"

    let run ?metrics ?observe ?stop _codec ~procs ~handlers ~init ~inputs
        ~failures ~until ~seed =
      Engine.run ?metrics ?observe ?stop config ~procs ~handlers ~init ~inputs
        ~failures ~until ~prng:(Gcs_stdx.Prng.create seed)
  end)
