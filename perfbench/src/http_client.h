//===--- perfbench/src/http_client.h - a loopback HTTP/1.1 client ---------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Just enough of an HTTP client to drive serve::Daemon the way a remote
/// client would: one request per connection (the daemon answers with
/// `Connection: close`), body read to end of stream.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HTTP_CLIENT_H
#define PERFBENCH_HTTP_CLIENT_H

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct HttpReply {
  int Status = 0; ///< 0 when the exchange itself failed
  std::vector<std::pair<std::string, std::string>> Headers;
  std::string Body;

  std::string header(const std::string &Name) const;
};

HttpReply httpRequest(int Port, const std::string &Method,
                      const std::string &Path,
                      const std::vector<std::pair<std::string, std::string>>
                          &Headers = {},
                      const std::string &Body = "");

} // namespace perfbench

#endif // PERFBENCH_HTTP_CLIENT_H
