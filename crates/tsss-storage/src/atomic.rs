//! Crash-safe file replacement: write a temp file, then rename into place.
//!
//! The engine's file save (`SearchEngine::save_to_path`, which
//! `DurableEngine::save` calls) goes through [`atomic_write`], so a crash,
//! an `ENOSPC`, or any mid-write failure leaves the previous file
//! untouched — a reader only ever sees the complete old contents or the
//! complete new contents, never a torn prefix.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Writes a file atomically: `f` streams the contents into a temporary
/// sibling (`<name>.tmp` in the same directory, so the final rename cannot
/// cross filesystems), which is flushed, synced, and renamed over `path`
/// only after `f` succeeds. On any failure the temporary is removed and
/// the previous `path` contents remain intact.
///
/// # Errors
/// Propagates errors from `f` and from the filesystem operations.
pub fn atomic_write(
    path: &Path,
    f: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp_path = path.with_file_name(tmp_name);

    let result = (|| {
        let file = fs::File::create(&tmp_path)?;
        let mut w = io::BufWriter::new(file);
        f(&mut w)?;
        w.flush()?;
        w.into_inner()
            .map_err(|e| io::Error::other(e.to_string()))?
            .sync_all()?;
        fs::rename(&tmp_path, path)
    })();
    if result.is_err() {
        // analyze::allow(result-discipline): best-effort cleanup of the torn temp file — the write error below is the one that matters, and a leaked `.tmp` is re-created (same name) on the next save.
        let _ = fs::remove_file(&tmp_path);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tsss-atomic-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_new_file() {
        let dir = temp_dir("new");
        let path = dir.join("out.bin");
        atomic_write(&path, |w| w.write_all(b"hello")).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"hello");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_write_failure_leaves_old_contents_readable() {
        let dir = temp_dir("torn");
        let path = dir.join("out.bin");
        fs::write(&path, b"old contents").unwrap();

        let err = atomic_write(&path, |w| {
            w.write_all(b"new prefix that must never be seen")?;
            Err(io::Error::other("simulated crash"))
        })
        .unwrap_err();
        assert!(err.to_string().contains("simulated crash"));

        assert_eq!(fs::read(&path).unwrap(), b"old contents");
        assert!(
            !dir.join("out.bin.tmp").exists(),
            "torn temp file must be cleaned up"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replaces_existing_contents_completely() {
        let dir = temp_dir("replace");
        let path = dir.join("out.bin");
        fs::write(&path, b"a much longer previous payload").unwrap();
        atomic_write(&path, |w| w.write_all(b"short")).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"short");
        fs::remove_dir_all(&dir).unwrap();
    }
}
