let () =
  Alcotest.run "tcpfo"
    [
      ("seq32", Test_seq32.suite);
      ("checksum", Test_checksum.suite);
      ("interval_buf", Test_interval_buf.suite);
      ("bytebuf", Test_bytebuf.suite);
      ("engine", Test_engine.suite);
      ("rng_stats", Test_rng_stats.suite);
      ("wire", Test_wire.suite);
      ("medium", Test_medium.suite);
      ("link", Test_link.suite);
      ("arp", Test_arp.suite);
      ("tcp_basic", Test_tcp_basic.suite);
      ("tcp_transfer", Test_tcp_transfer.suite);
      ("tcp_loss", Test_tcp_loss.suite);
      ("tcp_close", Test_tcp_close.suite);
      ("tcp_edge", Test_tcp_edge.suite);
      ("bridge", Test_bridge_unit.suite);
      ("failover", Test_failover.suite);
      ("failover_prop", Test_failover_prop.suite);
      ("kick", Test_kick.suite);
      ("apps", Test_apps.suite);
      ("chain", Test_chain.suite);
      ("misc", Test_misc.suite);
      ("heartbeat", Test_heartbeat.suite);
      ("fault", Test_fault.suite);
      ("soak", Test_soak.suite);
      ("statex", Test_statex.suite);
      ("transfer", Test_transfer.suite);
      ("topo", Test_topo.suite);
      ("pool", Test_pool.suite);
      ("dispatch", Test_dispatch.suite);
      ("control", Test_control.suite);
      ("obs", Test_obs.suite);
      ("parallel", Test_parallel.suite);
    ]
