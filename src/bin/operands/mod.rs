//! File operands of the command-line tools.

use std::fs::Metadata;
use std::path::{Path, PathBuf};

/// Fails when two of the named `operands` (a name such as `--json`, and
/// a path if the operand was given) resolve to the same regular file.
/// Run it before any operand is created or truncated: writing one would
/// destroy the other, as a timeline created over the trace `info` is
/// about to read would. Paths naming anything but a regular file, such
/// as `/dev/null`, may repeat.
pub fn check_distinct(operands: &[(&str, Option<&str>)]) -> Result<(), String> {
    let mut seen: Vec<(FileId, &str)> = Vec::new();
    for &(name, path) in operands {
        let Some(path) = path else { continue };
        let Some(file) = regular_file(path) else {
            continue;
        };
        if let Some((_, earlier)) = seen.iter().find(|(f, _)| *f == file) {
            return Err(format!("{earlier} and {name} name the same file {path}"));
        }
        seen.push((file, name));
    }
    Ok(())
}

/// What makes two operands one regular file.
#[derive(PartialEq)]
enum FileId {
    /// An existing file's device and inode, so symlinks and hard links
    /// to it match.
    #[cfg(unix)]
    Inode(u64, u64),
    /// The canonical path of a file the run would create (off Unix, of
    /// an existing file too).
    Path(PathBuf),
}

/// The identity of the regular file `path` names, or would create if it
/// does not exist yet. `None` for anything else, and for a path whose
/// directory does not resolve (creating it fails with its own error
/// later).
fn regular_file(path: &str) -> Option<FileId> {
    let path = Path::new(path);
    match std::fs::metadata(path) {
        Ok(meta) if meta.is_file() => existing(path, &meta),
        Ok(_) => None,
        Err(_) => {
            let dir = path
                .parent()
                .filter(|dir| !dir.as_os_str().is_empty())
                .unwrap_or(Path::new("."));
            let dir = std::fs::canonicalize(dir).ok()?;
            Some(FileId::Path(dir.join(path.file_name()?)))
        }
    }
}

#[cfg(unix)]
fn existing(_: &Path, meta: &Metadata) -> Option<FileId> {
    use std::os::unix::fs::MetadataExt;
    Some(FileId::Inode(meta.dev(), meta.ino()))
}

#[cfg(not(unix))]
fn existing(path: &Path, _: &Metadata) -> Option<FileId> {
    std::fs::canonicalize(path).ok().map(FileId::Path)
}
