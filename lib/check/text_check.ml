let check indexes = List.concat_map Smc_text.Sa_index.audit indexes
