//! Fixture: the sanctioned shard-runner path — thread primitives here
//! are exempt from DET006 by file, not by annotation, and `.lock()` is
//! audited by DET008's canonical-order/nested-guard analysis instead.

pub fn sanctioned() {
    std::thread::scope(|s| {
        let _ = s;
    });
    let _ = Mutex::new(0u32);
}

pub fn exchange(core: &Core, mailboxes: &Rows, out: Vec<u8>) {
    mailboxes[core.part.id][1].lock().unwrap().append(out);
    for row in mailboxes.iter() {
        let mut inbox = row[core.part.id].lock().unwrap();
        inbox.clear();
    }
}

pub fn nested(core: &Core, mailboxes: &Rows) {
    let a = mailboxes[core.part.id][0].lock().unwrap();
    let b = mailboxes[core.part.id][1].lock().unwrap();
    drop((a, b));
}
