//! A12 known-clean fixture: fills precede closes on every path, a Close
//! in one loop iteration followed by a Fill in the next rides the back
//! edge (per-iteration discipline — legal by design), and Swap is issued
//! only by `install_epoch`, called only from `handle_ctrl`.

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
    pub fn serve(&self, session: u64) {
        self.cmd.send(Cmd::OpenMany(session)).ok();
        self.cmd.send(Cmd::FillMany(session)).ok();
        let _ = self.reply.recv_timeout(Duration::from_millis(5));
        self.cmd.send(Cmd::CloseMany(session)).ok();
    }

    pub fn drive(&self, sessions: &[u64]) {
        for &s in sessions {
            self.cmd.send(Cmd::FillMany(s)).ok();
            let _ = self.reply.recv_timeout(Duration::from_millis(5));
            self.cmd.send(Cmd::CloseMany(s)).ok();
        }
    }

    pub fn install_epoch(&self, epoch: u64) {
        self.cmd.send(Cmd::Swap(epoch)).ok();
    }

    pub fn handle_ctrl(&self, epoch: u64) {
        self.install_epoch(epoch);
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
