let check views = List.concat_map Smc_matview.Matview.audit views
