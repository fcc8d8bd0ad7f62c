let check indexes = List.concat_map Smc_index.Hash_index.audit indexes
