//! Fixture pool: no violation of its own. `fetch` and `get_pages_batch`
//! take the `PoolCore` mutex, which is what lets L5 see the app crate
//! enter the pool under a live page write guard.

pub struct BufferPool {
    core: Mutex<PoolCore>,
}

impl BufferPool {
    pub fn fetch(&self, pid: PageId) -> PageHandle {
        self.core.lock().fetch(pid)
    }

    pub fn get_pages_batch(&self, pids: &[PageId]) -> Vec<PageHandle> {
        self.core.lock().get_pages_batch(pids)
    }
}
