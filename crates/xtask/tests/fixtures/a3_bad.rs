//! Known-bad A3 fixture: `ShardCmd::Drain` is sent but never matched.

enum ShardCmd {
    OpenMany,
    FillMany,
    Drain,
}

fn scatter(tx: &Sender) {
    let _ = tx.send(ShardCmd::OpenMany);
    let _ = tx.send(ShardCmd::FillMany);
    let _ = tx.send(ShardCmd::Drain);
}

fn worker(rx: &Receiver) {
    match rx.recv() {
        Ok(ShardCmd::OpenMany) => {}
        Ok(ShardCmd::FillMany) => {}
        _ => {}
    }
}
