//! `disallowed-methods`: fan-out that bypasses the Executor seam.

pub fn detached() {
    let _ = std::thread::spawn(|| ()).join();
}
