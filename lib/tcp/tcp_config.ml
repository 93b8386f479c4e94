module Time = Tcpfo_sim.Time

type t = {
  mss : int;
  recv_buf_size : int;
  msl : Time.t;
  iss_override : int option;
  retention_budget : int;
}

let default =
  {
    mss = 1460;
    recv_buf_size = 65536;
    msl = Time.sec 5.0;
    iss_override = None;
    retention_budget = 1 lsl 20;
  }
