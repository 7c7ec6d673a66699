//! A12 known-bad fixture: a Swap sent outside `install_epoch`, a Fill
//! sent after a Close on the same straight-line path, and
//! `install_epoch` called outside tick-boundary control code. The
//! `pump` consumer keeps every variant wired so A3 (a different
//! property) stays quiet.

pub enum Cmd {
    OpenMany(u64),
    FillMany(u64),
    CloseMany(u64),
    Swap(u64),
}

pub struct Lane {
    cmd: Sender<Cmd>,
    reply: Receiver<u64>,
}

impl Lane {
    pub fn open(&self, session: u64) {
        self.cmd.send(Cmd::OpenMany(session)).ok();
    }

    pub fn hot_swap(&self, epoch: u64) {
        self.cmd.send(Cmd::Swap(epoch)).ok();
    }

    pub fn teardown(&self, session: u64) {
        self.cmd.send(Cmd::CloseMany(session)).ok();
        self.cmd.send(Cmd::FillMany(session)).ok();
        let _ = self.reply.recv_timeout(Duration::from_millis(5));
    }
}

pub struct Rebuilder {
    cluster: Cluster,
}

impl Rebuilder {
    pub fn rebuild(&self, next: u64) -> u64 {
        self.cluster.install_epoch(next)
    }
}

pub fn pump(rx: &Receiver<Cmd>) {
    while let Ok(cmd) = rx.recv_timeout(Duration::from_millis(5)) {
        match cmd {
            Cmd::OpenMany(_) => {}
            Cmd::FillMany(_) => {}
            Cmd::CloseMany(_) => {}
            Cmd::Swap(_) => {}
        }
    }
}
