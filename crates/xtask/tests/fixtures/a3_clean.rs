//! Known-clean A3 fixture: every `ShardCmd` variant is both produced
//! and consumed.

enum ShardCmd {
    OpenMany,
    FillMany,
    Drain,
}

fn scatter_gather(tx: &Sender, rx: &Receiver) {
    let _ = tx.send(ShardCmd::OpenMany);
    let _ = tx.send(ShardCmd::FillMany);
    let _ = tx.send(ShardCmd::Drain);
    let _ = rx.recv_timeout(GATHER_TIMEOUT);
}

fn worker(rx: &Receiver) {
    match rx.recv() {
        Ok(ShardCmd::OpenMany) => {}
        Ok(ShardCmd::FillMany) => {}
        Ok(ShardCmd::Drain) => {}
        _ => {}
    }
}
